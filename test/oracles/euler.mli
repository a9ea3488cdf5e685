(** Eulerian circuits in digraphs.

    The worst-case optimality argument of §2.5 rests on the fact that a
    connected balanced digraph is Eulerian and that removing a circuit
    from a balanced digraph leaves balanced components; this module
    provides the constructive side (Hierholzer's algorithm) and the
    circuit-partition of a balanced digraph's edges. *)

val is_eulerian : Graphlib.Digraph.t -> bool
(** Balanced and all edges lie in one weak component (labelled by
    {!Traversal.weak_components}). *)

val euler_circuit : Graphlib.Digraph.t -> int list option
(** A closed walk traversing every edge exactly once, as the node
    sequence [v₀; v₁; …; v_m] with [v₀ = v_m]; [None] when the graph is
    not Eulerian.  Nodes without edges are ignored.  The empty graph
    yields [Some []]. *)

val circuit_partition : Graphlib.Digraph.t -> int list list
(** Partition the edge set of a balanced digraph into edge-disjoint
    closed walks (one Euler circuit per weakly-connected piece with
    edges).  @raise Invalid_argument if the graph is not balanced. *)

val is_circuit : Graphlib.Digraph.t -> int list -> bool
(** [is_circuit g [v₀;…;v_m]] checks that consecutive pairs are edges,
    [v₀ = v_m], and no directed edge is used more often than its
    multiplicity in the graph. *)
