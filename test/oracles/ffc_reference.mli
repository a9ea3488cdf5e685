(** The seed's list-based centralized FFC pipeline, frozen.

    {!Embed} now runs the Chapter-2 construction over implicit
    arithmetic topology with flat state; this module keeps the original
    Digraph/list/Hashtbl implementation reachable as the reference the
    fast path is pinned against — the qcheck agreement suite demands
    identical roots, successor maps and cycles on random (d, n, faults),
    and the [scale] bench section uses it as the baseline. *)

type t = {
  p : Debruijn.Word.params;
  root : int;  (** the distinguished node R *)
  size : int;  (** |B\u{2217}| *)
  in_bstar : bool array;  (** node-level membership in B\u{2217} *)
  successor : int array;  (** node → successor in H, −1 outside B\u{2217} *)
  cycle : int array;  (** H, starting at the root *)
}

val embed : ?root_hint:int -> Debruijn.Word.params -> faults:int list -> t option
(** Same contract as [Embed.embed], original implementation. *)
