(** Breadth-first traversal, distances, components.

    The FFC algorithm's Step 1.1 is a BFS broadcast whose parent rule is
    "the predecessor from which the node first received the message,
    ties broken by the minimal predecessor" — {!bfs_tree} implements
    exactly that rule. *)

val bfs_dist : Graphlib.Digraph.t -> int -> int array
(** [bfs_dist g src] gives directed distances from [src]; unreachable
    nodes get [-1]. *)

val bfs_dist_restricted : Graphlib.Digraph.t -> (int -> bool) -> int -> int array
(** BFS over the subgraph induced by nodes satisfying the predicate
    ([src] must satisfy it). *)

val bfs_tree : Graphlib.Digraph.t -> int -> int array * int array
(** [bfs_tree g src] is [(dist, parent)] where [parent.(v)] is the
    minimal predecessor of [v] at depth [dist.(v) − 1]; [parent.(src)]
    and unreachable nodes are [-1]. *)

val eccentricity : Graphlib.Digraph.t -> int -> int
(** Maximum finite BFS distance from the node (directed). *)

val diameter_from_all : Graphlib.Digraph.t -> int
(** Maximum eccentricity over all nodes that can reach every other node
    of their component; intended for small graphs (O(V·E)). *)

val weak_components : Graphlib.Digraph.t -> int array * int
(** [weak_components g] labels every node with a component id in the
    symmetric closure, returning [(label, count)].  Isolated nodes form
    their own components. *)

val largest_weak_component : Graphlib.Digraph.t -> (int -> bool) -> int list
(** Largest weakly-connected node set of the subgraph induced by the
    predicate (ties broken toward the component of the smallest node).
    Nodes failing the predicate are excluded entirely. *)

val strongly_connected_components : Graphlib.Digraph.t -> int list list
(** Tarjan's SCC; components in reverse topological order. *)

val is_strongly_connected : Graphlib.Digraph.t -> (int -> bool) -> bool
(** Is the induced subgraph on the predicate's nodes strongly connected?
    (Vacuously true on ≤ 1 node.) *)
