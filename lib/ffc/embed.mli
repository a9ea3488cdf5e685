(** Step 3 of the FFC algorithm and the end-to-end driver.

    The successor of a node αw of B\u{2217} (α its first digit, w the
    (n−1)-suffix) is
    - the entry node wβ of \[Y\] when D carries a w-edge \[X\]→\[Y\] out of
      αw's necklace \[X\], and
    - its necklace successor wα otherwise.

    Proposition 2.1: following these successors yields a Hamiltonian
    cycle H of B\u{2217}; Proposition 2.2 bounds its length below by
    dⁿ − nf when f ≤ d−2.

    So the ring is one digit β per node, wβ being the successor of αw:
    {!Spanning.modify} writes that byte table ({!Succ_digit}), and the
    ring is closed by arithmetic ({!close_ring}).  One sequential pass
    checks the table against B\u{2217}; then the walk from R reads one
    byte per step and takes each node's leading digit α from the ring
    node n−1 places back.  It never reads the materialized successor
    map. *)

type t = {
  bstar : Bstar.t;
  modified : Spanning.modified;
  successor : Graphlib.Flatarr.t;
      (** node → its successor in H, −1 outside B\u{2217} (off-heap),
          derived from [modified.digit] *)
  cycle : int array;  (** H, starting at the root R *)
}

val successor_map :
  ?domains:int -> ?ws:Workspace.t -> Spanning.modified -> Graphlib.Flatarr.t
(** The [successor] field, derived from [modified.digit] in one pass
    per leading digit, with no division; no library code reads it (the
    ring walk reads the digits), and it stays only because
    {!t.successor} and the repository benchmark ([bench/suite]) still
    need it.  [?domains] is ignored; it stays only because that
    benchmark passes it, and goes with its next re-anchor. *)

val close_ring : Spanning.modified -> int array
(** Step 3's ring H from the root R, as a fresh array of length
    |B\u{2217}| ([Bstar.size]).  First one sequential pass checks that
    [modified.digit] agrees with [in_bstar] ({!Succ_digit.first_disagreement}:
    {!Succ_digit.outside} exactly off B\u{2217}, every digit below d);
    then {!Succ_digit.walk} follows the digits from R.
    @raise Pipeline_error.Error (stage ["Embed"]) when the table
    disagrees with [in_bstar], when the walk reaches a node outside
    B\u{2217}, when it has not returned to R after
    |B\u{2217}| nodes (which covers revisiting any other node), or when
    it returns to R after fewer than |B\u{2217}| nodes.  So no ring
    holding a node outside [in_bstar] is ever returned. *)

val of_bstar : ?ws:Workspace.t -> Bstar.t -> t
(** Run steps 1–3 on an already-computed B\u{2217}: the stages, then
    {!successor_map} and {!close_ring}, all on one workspace (without
    [?ws], one made for the call; {!Workspace}'s ownership rule).  No
    stage here traverses B\u{2217}: T′'s levels come with the record,
    from {!Bstar.compute}'s BFS.
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

    Every stage runs on one workspace, the caller's or one made for the
    call, so on a warm workspace the trial allocates almost nothing
    beyond [cycle], and every field but [cycle] aliases the workspace
    ({!Workspace}'s ownership rule).  [?domains] is ignored, and kept
    for the repository benchmark only, as on {!successor_map}. *)

val verify : ?ws:Workspace.t -> t -> bool
(** H is a Hamiltonian cycle of B\u{2217} avoiding all faulty necklaces
    (checked arithmetically with a fresh dⁿ-bit seen set; does not
    force [bstar.graph]).  [?ws] is ignored, like [?domains] on
    {!embed}: it stays only because the repository benchmark passes
    it. *)

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
