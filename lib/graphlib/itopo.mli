(** Traversals over {e implicit} topologies — the library's one
    generic traversal engine ([Ffc.Bstar] floods B(d,n) itself, over
    its own byte tables).

    Every algorithm here takes the graph as neighbor-iterator closures
    instead of a materialized {!Digraph.t}: [succs v f] must call [f] on
    each successor of [v] (in a fixed order), likewise [preds].  For De
    Bruijn graphs the iterators are pure arithmetic
    ([Debruijn.Word.iter_succs]), so million-node traversals run without
    building any adjacency structure at all; a [Digraph.t] is walked
    through its successor lists ([fun v f -> List.iter f (Digraph.succs
    g v)]), as [Euler] and [Kautz] do.  State is flat and off-heap:
    distances and discovery order in 32-bit {!Flatarr.I32} cells (the
    BFS queue {e is} the discovery-order array — every node is pushed
    at most once, so no ring buffer is needed), visited marks in
    {!Bitset}.  Node counts are therefore limited to 2³¹
    ({!Flatarr.I32.check_nodes}).  The seed's
    list-based traversal layer survives only as the tests' reference
    ([Oracles.Traversal], in a test-only library).

    Every traversal is one sequential FIFO loop, so discovery order,
    distances and component tie-breaks are a function of the iterators
    alone. *)

type iter = int -> (int -> unit) -> unit
(** [iter v f] calls [f] on each neighbor of [v], in a deterministic
    order.  [f] may be invoked on nodes failing the traversal's [?keep]
    predicate — filtering happens at the traversal layer. *)

val no_preds : iter
(** An empty predecessor iterator, recognized {e physically} by the
    component sweeps: when the caller knows every weak component of the
    induced subgraph is strongly connected (true for B\u{2217}, whose removed
    set is a union of necklaces), passing [no_preds] makes the sweep
    walk [succs] alone — half the edge work and no wrapper closure. *)

type bfs = {
  dist : Flatarr.I32.t;  (** distance from the source; [-1] if unreached *)
  order : Flatarr.I32.t;
      (** [order.{0 .. count−1}] are the reached nodes in discovery
          order (nondecreasing distance); entries beyond [count] are
          meaningless *)
  count : int;  (** number of reached nodes *)
}

type ws
(** Reusable traversal scratch (visited bitset + full-size dist/order
    arrays) for a fixed node count.  Passing [?ws] to a traversal makes
    it allocation-free: the returned {!bfs} record {e aliases} the
    workspace arrays, so its contents are only valid until the next
    traversal that uses the same workspace.  Results are bit-identical
    to the fresh-allocation path — each traversal resets exactly the
    workspace state it reads. *)

val ws_create : int -> ws
(** [ws_create n] — workspace for traversals over node ids
    [0 .. n−1], with its 2n-cell dist/order storage off-heap.
    @raise Invalid_argument past 2³¹ nodes, before allocating
    ({!Flatarr.I32.check_nodes}). *)

val bfs : ?ws:ws -> n:int -> succs:iter -> ?keep:(int -> bool) -> int -> bfs
(** [bfs ~n ~succs src] — BFS from [src] over node ids [0 .. n−1], in
    FIFO order: nodes are expanded in discovery order, each appending
    its undiscovered successors in [succs] order.  [?keep] restricts to
    an induced subgraph; a source failing [keep] reaches nothing
    ([count = 0]).  With [?ws] the result's [dist] and [order] point
    into the workspace (valid until its next use). *)

val bfs_dist : n:int -> succs:iter -> ?keep:(int -> bool) -> int -> int array
(** The distance array of a {!bfs}, copied to the heap. *)

val eccentricity : n:int -> succs:iter -> ?keep:(int -> bool) -> int -> int
(** Maximum finite BFS distance from the node (directed); [0] if the
    source reaches nothing. *)

val component_members :
  n:int -> succs:iter -> preds:iter -> ?keep:(int -> bool) -> int -> int array
(** Weakly-connected component of the node (BFS over the symmetric
    closure), in BFS discovery order.  Costs O(component) words beyond
    the n-bit visited set, so probing a small component of a huge graph
    is cheap.  Empty if the node fails [keep]. *)

val largest_weak_component :
  n:int ->
  succs:iter ->
  preds:iter ->
  ?keep:(int -> bool) ->
  unit ->
  int array
(** Largest weakly-connected node set of the induced subgraph, in BFS
    discovery order from its smallest member; size ties break toward
    the component containing the smallest node (both as in the seed's
    [Oracles.Traversal.largest_weak_component]).  Empty iff no node
    passes [keep]. *)

val weak_labels :
  n:int -> succs:iter -> preds:iter -> ?keep:(int -> bool) -> unit -> int array
(** Labels every kept node with the smallest node of its weak component
    ([-1] for nodes failing [keep]). *)

val is_strongly_connected :
  n:int -> succs:iter -> preds:iter -> ?keep:(int -> bool) -> unit -> bool
(** Is the induced subgraph strongly connected?  (Vacuously true on
    ≤ 1 node.)  Forward + backward reachability from one kept node. *)
