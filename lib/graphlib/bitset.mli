(** Dense bitsets over [0 .. len−1], backed by [Bytes].

    One bit per element — the visited marks and fault masks of
    {!Cycle}'s walks, [Ffc.Embed.verify], [Ffc.Bstar.fault_probe] and
    [Dhc.Edge_fault] live here instead of in [bool array]s, an 8×
    space saving that matters at De Bruijn sizes (B(2,22) is 4M+
    nodes). *)

type t

val create : int -> t
(** All-zero set over [0 .. len−1]. *)

val length : t -> int
val mem : t -> int -> bool
val add : t -> int -> unit
val remove : t -> int -> unit

val clear : t -> unit
(** Reset every bit — O(len/8), for reuse across traversals. *)

val cardinal : t -> int
