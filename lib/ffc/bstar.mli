(** B\u{2217}: the graph left after removing every faulty necklace.

    Given faults F = {F₁,…,F_f}, the FFC algorithm works in
    B\u{2217} = the largest component of B(d,n) − {N(F₁),…,N(F_f)}.
    Because the removed set is a union of necklaces, every weak
    component is strongly connected (any edge αw→wβ between two live
    necklaces is matched by the edge βw→wα in the other direction), so
    "component" is unambiguous.

    All computations here are {e implicit}: nothing graph-shaped is
    allocated.  {!compute} and {!component_of} flood B(d,n) with one
    FIFO routine of their own: x expands to its successors
    (x mod dⁿ⁻¹)·d + a for a ascending, and a successor v is taken iff
    [in_bstar.{v} lor necklace_faulty.{v} = 0], so the B\u{2217} flags
    are the visited set and the levels are written straight into
    32-bit cells.  That flood is the library's one BFS.  The [graph]
    field materializes the full B(d,n) as a [Digraph.t] lazily.  No
    library code forces it any more — the netsim-backed engines run on
    the arithmetic edge test [Debruijn.Word.is_edge] — and only the
    repository benchmark's [distributed-ffc] workload still does, so it
    goes at that benchmark's next re-anchor. *)

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
  dist : Graphlib.Flatarr.I32.t;
      (** node-level distance from R inside B\u{2217} (−1 outside), in
          32-bit cells: the levels of Step 1.1's broadcast tree T′,
          which [Spanning.build] reads *)
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

    One flood usually does all of it.  It starts from the root
    candidate — the hint's representative when its necklace is live,
    otherwise the smallest live node — over the live nodes.  When it
    reaches a strict majority of them (dⁿ minus the nodes on faulty
    necklaces), its component is the unique largest: that is
    B\u{2217}, the candidate is R, and the flood's levels are [dist].
    Otherwise the sweep clears the first flood's marks, floods every
    unmarked live node's component in ascending order (each seed is its
    component's smallest node), keeps the strictly largest by the rules
    above, and floods once more from that R.

    The result's [necklace_faulty], [in_bstar] (the flood's visited
    marks) and [dist] (its levels) are the workspace arrays of those
    names, and the flood's queue is its [order] ({!Workspace}'s
    ownership rule).  [?domains] is ignored: the flood and the sweep
    are sequential.  It stays in the signature only because the
    repository benchmark ([bench/suite]) passes it, and goes with that
    benchmark's next re-anchor.
    @raise Invalid_argument as {!Workspace.resolve}: past 2³¹ nodes,
    before allocating, or on a workspace for another (d, n). *)

val component_of : Debruijn.Word.params -> faults:int list -> int -> t option
(** The component containing the given node, with that node's necklace
    representative as root; [None] if the node lies on a faulty
    necklace.  Used for the Table 2.1/2.2 experiments.  One flood from
    the root fills every field, so [dist]/[ecc] are as in {!compute}.
    Costs O(dⁿ) time and a whole workspace of its own (about 34 bytes
    per node, {!Workspace.create}) whatever the component's size: the
    fault marks, the visited marks and the flood's arrays all span
    every node. *)

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
    flood. *)
