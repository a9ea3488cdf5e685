(** B\u{2217}: the graph left after removing every faulty necklace.

    Given faults F = {F₁,…,F_f}, the FFC algorithm works in
    B\u{2217} = the largest component of B(d,n) − {N(F₁),…,N(F_f)}.
    Because the removed set is a union of necklaces, every weak
    component is strongly connected (any edge αw→wβ between two live
    necklaces is matched by the edge βw→wα in the other direction), so
    "component" is unambiguous.

    All computations here are {e implicit}: they traverse B(d,n) through
    the arithmetic neighbor iterators ([Debruijn.Word.iter_succs]), so
    nothing graph-shaped is allocated.  The [graph] field materializes
    the full B(d,n) as a [Digraph.t] lazily.  No library code forces it
    any more — the netsim-backed engines run on the arithmetic edge test
    [Debruijn.Word.is_edge] — and only the repository benchmark's
    [distributed-ffc] workload still does, so it goes at that
    benchmark's next re-anchor. *)

type t = {
  p : Debruijn.Word.params;
  graph : Graphlib.Digraph.t Lazy.t;
      (** the full B(d,n), materialized on first force; forced only by
          [bench/suite] (see above) *)
  faults : int list;  (** the faulty nodes as given *)
  necklace_faulty : Graphlib.Flatarr.Byte.t;
      (** node-level: nonzero iff the node lies on a faulty necklace *)
  in_bstar : Graphlib.Flatarr.Byte.t;
      (** node-level membership in B\u{2217} (nonzero iff member) — off-heap
          flag bytes, [m.{v} <> 0] to test *)
  size : int;  (** |B\u{2217}| — the fault-free cycle length *)
  root : int;  (** the distinguished node R with N(R) = \[R\] *)
  dist : Graphlib.Flatarr.t;
      (** node-level BFS distance from R inside B\u{2217} (−1 outside): the
          levels of Step 1.1's broadcast tree T′, which [Spanning.build]
          reads *)
  ecc : int;
      (** eccentricity of R in B\u{2217} (max of [dist]) — the broadcast
          round count of Step 1.1 and Table 2.1/2.2's ecc(R) column *)
}

val compute :
  ?root_hint:int ->
  ?domains:int ->
  ?ws:Workspace.t ->
  Debruijn.Word.params ->
  faults:int list ->
  t option
(** The largest component after removing faulty necklaces; [None] when
    every node is on a faulty necklace.  The root is the necklace
    representative of [root_hint] when that lies inside the chosen
    component (the thesis's tables use R = 0…01); otherwise the smallest
    necklace representative in the component.  Ties between equal-size
    components break toward the one containing the smallest node.

    One BFS usually does all of it.  It starts from the root candidate
    — the hint's representative when its necklace is live, otherwise
    the smallest live node — over the live nodes.  When it reaches a
    strict majority of them (dⁿ minus the nodes on faulty necklaces),
    its component is the unique largest: that is B\u{2217}, the candidate
    is R, and the BFS's distances are [dist].  Otherwise a sweep over
    every component picks B\u{2217} and R by the rules above, and the
    same BFS then runs from that R.

    [?domains] is ignored: the BFS and the sweep are sequential.  It
    stays in the signature only because the repository benchmark
    ([bench/suite]) passes it, and goes with that benchmark's next
    re-anchor.  With [?ws] nothing dⁿ-sized is allocated: the result's
    [necklace_faulty]/[in_bstar] alias workspace arrays and [dist] the
    workspace's traversal scratch (valid until the workspace's next use;
    contents bit-identical to fresh). *)

val component_of : Debruijn.Word.params -> faults:int list -> int -> t option
(** The component containing the given node, with that node's necklace
    representative as root; [None] if the node lies on a faulty
    necklace.  Used for the Table 2.1/2.2 experiments.  One BFS from
    the root fills every field, so [dist]/[ecc] are as in {!compute}.
    Costs O(dⁿ) time and words whatever the component's size: the fault
    marks, the visited mask and the BFS arrays all span every node. *)

val component_members :
  Debruijn.Word.params -> faults:int list -> int -> int array
(** The members of that component in BFS discovery order from the node
    (symmetric closure, live nodes only); [[||]] if the node lies on a
    faulty necklace. *)

val fault_probe : t -> int -> bool
(** [fault_probe t] is the membership test of [t.faults] — the
    [~faulty] predicate of the netsim-backed engines, which call it once
    per node and once per send.  Partial application builds one
    dⁿ-bit mask (O(dⁿ/8 + f)); each probe is then O(1), whatever the
    fault count.  Set semantics as [List.mem]: duplicate faults are
    harmless, and codes outside \[0, dⁿ) are never reported faulty. *)

val nodes : t -> int list
(** Members of B\u{2217}, increasing. *)

val necklace_count : t -> int
(** Number of live necklaces inside B\u{2217}. *)

val eccentricity_of_root : t -> int
(** [t.ecc]: max distance from the root within B\u{2217} — the broadcast
    round count of Step 1.1.  A field read; {!compute} already ran the
    BFS. *)

val diameter : t -> int
(** The thesis's K: the diameter of B\u{2217} (O(|B\u{2217}|·edges); meant for
    experiment sizes). *)

val is_strongly_connected : t -> bool
(** Sanity: B\u{2217} should always be strongly connected. *)
