(** Off-heap flat int arrays and the workspace arena carver.

    [t] is a [Bigarray.Array1] of kind [int] (unboxed 63-bit ints in
    malloc'd storage): the GC never scans or moves its contents, so the
    pipeline's per-node working set and [Ffc.Live]'s tables cost the
    collector nothing.  {!Byte} and {!I32} are the one- and four-byte
    kinds.

    In a loop, index directly with the bigarray syntax on a value of
    the alias type: [a.{i}] / [a.{i} <- v] on a [t] or [Byte.t],
    [Int32.to_int a.{i}] / [a.{i} <- Int32.of_int v] on an [I32.t].
    The element kind is then known where the access is compiled, so it
    is an inline bounds-checked load or store, and the [int32] is never
    boxed.  The named {!get}/{!set} are for cold code: the dev profile
    compiles every library with [-opaque], so across modules each one
    is a real call.

    {b [create] does not zero}: Bigarray hands back raw storage.  Use
    {!make}, or rely on the reset-before-read discipline the pipeline
    stages already follow (DESIGN.md §5/§6b). *)

type t = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

val create : int -> t
(** Uninitialized off-heap array of [n] ints. *)

val make : int -> int -> t
(** [make n v] — like [Array.make]: [n] ints, all set to [v]. *)

val length : t -> int
val get : t -> int -> int
val set : t -> int -> int -> unit
val fill : t -> int -> unit

val fill_prefix : t -> int -> int -> unit
(** [fill_prefix a len v] sets [a.{0 .. len−1}] to [v] — the
    workspace's necklace-level arrays have fault-free capacity but only
    their live prefix is ever (re)set and read. *)

val of_array : int array -> t
val to_array : t -> int array

val sub_to_array : t -> int -> int -> int array
(** [sub_to_array a pos len] — heap copy of [a.{pos .. pos+len−1}]. *)

val blit : t -> t -> unit
(** Copy every element of the source into the (at least as long)
    destination's prefix. *)

(** One-byte arrays (kind [int8_unsigned]): the off-heap replacement
    for the pipeline's node-level [bool array]s, at 1/8 the footprint
    of a word-per-flag layout, and the ring's digit table. *)
module Byte : sig
  type t = (int, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

  val create : int -> t
  (** Uninitialized. *)

  val make : int -> int -> t
  val length : t -> int
  val get : t -> int -> int
  val set : t -> int -> int -> unit
  val fill : t -> int -> unit

  val to_bool_array : t -> bool array
  (** [true] where nonzero — for consumers (and oracles) that still
      speak [bool array]. *)
end

(** 32-bit cells (kind [int32]), half a word: the tables whose values
    are node ids, necklace keys or BFS levels — [Ffc.Bstar]'s [dist]
    and [order], the necklace index, [Ffc.Live]'s representative,
    level and bucket tables.  Every such value is −1 or below the node
    count dⁿ, so the cells hold them while dⁿ ≤ 2³¹ ({!check_nodes}).
    The whole-array operations take and return [int]s. *)
module I32 : sig
  type t = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t

  val max_nodes : int
  (** 2³¹: the largest node count whose ids and levels fit a cell. *)

  val check_nodes : int -> unit
  (** [check_nodes size] — the preflight every dⁿ-sized 32-bit table
      rests on.  [Ffc.Workspace.create], [Ffc.Live.create] and a fresh
      [Ffc.Bstar.compute] run it before they allocate anything
      node-sized.
      @raise Invalid_argument naming [size] and the 2³¹ limit when
      [size > max_nodes]. *)

  val create : int -> t
  (** Uninitialized. *)

  val make : int -> int -> t
  val length : t -> int
  val fill : t -> int -> unit
  val to_array : t -> int array
  val sub_to_array : t -> int -> int -> int array

  val blit : t -> t -> unit
  (** Copy every element of the source into the (at least as long)
      destination's prefix — how [Ffc.Live] snapshots workspace-aliased
      results into its own tables. *)
end

(** Sub-arena carving: many arrays out of three backing allocations.

    Every carve starts at a 64-byte-separated offset, so two carved
    regions never share a cache line {e relative to the backing} —
    domains writing disjoint carves cannot false-share.  Carving is
    append-only and permanent (an arena is sized exactly once, by
    [Ffc.Workspace.create]); carving past the backing raises. *)
module Arena : sig
  type arena

  val create : words:int -> bytes:int -> cells:int -> arena
  (** Backings of [words] ints, [bytes] bytes and [cells] 32-bit cells,
      zeroed once. *)

  val carve : arena -> int -> t
  (** The next [n]-int region (a view into the word backing).
      @raise Invalid_argument when the backing is exhausted. *)

  val carve_byte : arena -> int -> Byte.t

  val carve_i32 : arena -> int -> I32.t
  (** The next [n]-cell region of the 32-bit backing. *)

  val aligned_words : int -> int
  (** Words actually consumed by an [n]-word carve (rounded up to the
      64-byte alignment quantum) — for sizing the backing as a sum. *)

  val aligned_bytes : int -> int
  val aligned_cells : int -> int
  val words_used : arena -> int
  val bytes_used : arena -> int
  val cells_used : arena -> int
end
