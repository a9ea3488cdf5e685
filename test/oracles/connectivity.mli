(** Connectivity via unit-capacity max-flow (Menger's theorem).

    Chapter 1 frames network reliability through connectivity — the
    d-ary De Bruijn digraph has (node-)connectivity d−1 and UB(d,n) has
    2(d−1) [EH85], which is why "f ≤ d−2 faults" is the natural fault
    regime.  This module computes those quantities exactly on small
    graphs with BFS-augmenting max-flow (Edmonds–Karp) over the
    standard node-splitting construction. *)

val max_edge_disjoint_paths : Graphlib.Digraph.t -> int -> int -> int
(** Maximum number of pairwise edge-disjoint u→v paths (u ≠ v). *)

val max_node_disjoint_paths : Graphlib.Digraph.t -> int -> int -> int
(** Maximum number of internally node-disjoint u→v paths (u ≠ v,
    counting a direct edge as one path). *)

val edge_connectivity : Graphlib.Digraph.t -> int
(** λ(G) = min over ordered pairs of {!max_edge_disjoint_paths} — 0 for
    graphs that are not strongly connected.  O(V²) flow computations;
    for experiment-sized graphs. *)

val node_connectivity : Graphlib.Digraph.t -> int
(** κ(G): minimum over non-adjacent ordered pairs of internally
    node-disjoint paths (standard convention; complete digraphs get
    n−1).  Loops are ignored. *)
