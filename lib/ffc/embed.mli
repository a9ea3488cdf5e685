(** Step 3 of the FFC algorithm and the end-to-end driver.

    The successor of a node αw of B\u{2217} (α its first digit, w the
    (n−1)-suffix) is
    - the entry node wβ of \[Y\] when D carries a w-edge \[X\]→\[Y\] out of
      αw's necklace \[X\], and
    - its necklace successor wα otherwise.

    Proposition 2.1: following these successors yields a Hamiltonian
    cycle H of B\u{2217}; Proposition 2.2 bounds its length below by
    dⁿ − nf when f ≤ d−2.

    The ring is closed by arithmetic ({!close_ring}): one sequential
    pass marks the D-edge exit nodes of [succ_override] in a dⁿ-bit
    set, then the walk from R reads [succ_override] only at a marked
    exit and takes the rotation wα (one integer division) everywhere
    else.  It never reads the materialized successor map. *)

type t = {
  bstar : Bstar.t;
  modified : Spanning.modified;
  successor : Graphlib.Flatarr.t;
      (** node → its successor in H, −1 outside B\u{2217} (off-heap) *)
  cycle : int array;  (** H, starting at the root R *)
}

val successor_map :
  ?domains:int -> ?ws:Workspace.t -> Spanning.modified -> Graphlib.Flatarr.t
(** The [successor] field, for {!Live} and the tests; the ring walk
    does not read it.  One sequential pass over the nodes.  [?domains]
    is ignored; it stays only because the repository benchmark
    ([bench/suite]) passes it, and goes with that benchmark's next
    re-anchor. *)

val close_ring : ?ws:Workspace.t -> Spanning.modified -> int array
(** Step 3's ring H from the root R, as a fresh array of length
    |B\u{2217}| ([Bstar.size]).  With [?ws] the exit set lives in the
    workspace; the ring itself is always fresh.
    @raise Pipeline_error.Error (stage ["Embed"]) when the walk steps
    outside B\u{2217} (or out of the node range), when it has not returned
    to R after |B\u{2217}| nodes (which covers revisiting any other
    node), or when it returns to R after fewer than |B\u{2217}| nodes. *)

val of_bstar : ?ws:Workspace.t -> Bstar.t -> t
(** Run steps 1–3 on an already-computed B\u{2217}: the stages, then
    {!successor_map} and {!close_ring}.  No stage here traverses
    B\u{2217}: T′'s levels come with the record, from {!Bstar.compute}'s
    BFS.
    @raise Pipeline_error.Error if the successors do not close into a
    Hamiltonian cycle of B\u{2217} ({!close_ring}) — impossible
    (Proposition 2.1) on a B\u{2217} produced by {!Bstar.compute}, and a
    typed, recoverable condition rather than a crash if a hand-built
    B\u{2217} is malformed. *)

val embed :
  ?root_hint:int ->
  ?domains:int ->
  ?ws:Workspace.t ->
  Debruijn.Word.params ->
  faults:int list ->
  t option
(** Full pipeline: compute B\u{2217}, build N\u{2217}, T, D, and H.  [None] when
    no live necklace remains.  Entirely implicit/flat — B(2,22) (4M
    nodes) embeds in seconds without materializing any graph.

    With [?ws] every intermediate lives in the workspace arena and the
    trial allocates almost nothing beyond [cycle] (which is always a
    fresh array); all fields except [cycle] alias workspace storage and
    are invalidated by the workspace's next use.  Contents are
    bit-identical to the fresh path.  [?domains] is ignored, and kept
    for the repository benchmark only, as on {!successor_map}. *)

val verify : ?ws:Workspace.t -> t -> bool
(** H is a Hamiltonian cycle of B\u{2217} avoiding all faulty necklaces
    (checked arithmetically; does not force [bstar.graph]).  [?ws]
    borrows the workspace's [cycle_seen] bitset instead of allocating. *)

val length : t -> int

val length_lower_bound : Debruijn.Word.params -> int -> int
(** dⁿ − n·f — the Proposition 2.2 guarantee for f ≤ d−2 (and the
    benchmark tables' reference column for any f). *)

val worst_case_faults : Debruijn.Word.params -> int -> int list
(** The adversarial fault set {α^{n−1}(d−1) | 0 ≤ α ≤ f−1} from §2.5
    for which no cycle longer than dⁿ − nf exists.

    Only defined for 0 ≤ f ≤ d − 2: Proposition 2.2's guarantee (and
    the §2.5 optimality argument that makes this family "worst case")
    holds only in that regime — at f = d − 1 the pack would kill every
    in-neighbor of node 0ⁿ⁻¹(d−1)'s necklace and the length claim
    breaks down.
    @raise Invalid_argument when f < 0 or f > d − 2. *)
