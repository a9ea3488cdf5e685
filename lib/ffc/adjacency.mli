(** The necklace adjacency graph N\u{2217} (Definition, §2.2).

    Nodes are the necklaces of B\u{2217}.  There is a directed edge labeled
    w ∈ ℤ_d^{n−1} from \[X\] to \[Y\] iff αw ∈ \[X\] and βw ∈ \[Y\] for some
    digits α ≠ β; every edge has an antiparallel twin with the same
    label.  A necklace contains at most one node of the form αw for a
    given w (nodes αw, βw with α ≠ β have different weights yet
    rotations preserve weight), which makes entry/exit points unique.

    The necklace index ([reps]/[idx_of_node]) is built in one ascending
    pass and is the only N\u{2217} state kept.  The first live node of
    each necklace is its representative x; the pass keeps x's base-d
    digits as an odometer and walks the necklace by them, each rotation
    a·dⁿ⁻¹ + w → w·d + a taking a as x's next digit, so no node costs a
    division.  Edges are read from [idx_of_node] when needed (the
    w-edges at a node αw go to the necklaces of the live nodes βw,
    β ≠ α), so N\u{2217} is never materialized. *)

type t = {
  bstar : Bstar.t;
  reps : int array;  (** necklace representatives in B\u{2217}, increasing *)
  idx_of_node : Graphlib.Flatarr.I32.t;
      (** node → necklace index, −1 outside B\u{2217} (off-heap 32-bit
          cells) *)
}

val build : ?ws:Workspace.t -> Bstar.t -> t
(** The necklace index, built into the workspace's [idx_of_node] and
    [reps_buf] ({!Workspace}'s ownership rule); [reps] is an exact-size
    heap copy, since its length {e is} the necklace count
    everywhere. *)

val edges : t -> (int * int * int) list
(** The labeled edge list [(src idx, dst idx, label w)], both
    directions of every twin pair — recomputed arithmetically on each
    call (meant for tests/pretty-printing, not the hot path). *)

val index_of_rep : t -> int -> int
(** Necklace index of a representative. @raise Not_found if absent. *)

val node_with_suffix : t -> int -> int -> int option
(** [node_with_suffix t idx w] is the unique node αw (suffix w) on the
    necklace, if any — the potential exit point for w-edges. *)

val node_with_prefix : t -> int -> int -> int option
(** [node_with_prefix t idx w] is the unique node wβ (prefix w) on the
    necklace, if any — the potential entry point for w-edges. *)

val exit_scan : Debruijn.Word.params -> Graphlib.Flatarr.I32.t -> int -> int -> int -> int
(** [exit_scan p key k w 0] — the exit rule, shared with [Live]: the
    node αw with [key.{αw} = k], or −1.  [key] maps nodes to necklace
    keys, −1 outside B\u{2217} ([idx_of_node] and an index, or [Live]'s
    representative table and a representative). *)

val entry_scan : Debruijn.Word.params -> Graphlib.Flatarr.I32.t -> int -> int -> int -> int
(** [entry_scan p key k w 0] — the entry rule: the node wβ with
    [key.{wβ} = k], or −1. *)

val labels_between : t -> int -> int -> int list
(** All labels w of edges from one necklace index to another, sorted. *)
