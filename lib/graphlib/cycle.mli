(** Cycle validation and manipulation.

    Throughout the reproduction a cycle is an [int array] of {e distinct}
    nodes [|v₀; …; v_{k−1}|] with edges v₀→v₁→…→v_{k−1}→v₀ (the closing
    edge is implicit, matching the thesis's circular-sequence notation). *)

val is_cycle : Digraph.t -> int array -> bool
(** All nodes distinct and every consecutive pair (including the wrap)
    is an edge.  Singleton cycles require a loop edge; the empty array
    is not a cycle. *)

val is_hamiltonian : Digraph.t -> ?subset:(int -> bool) -> int array -> bool
(** [is_hamiltonian g c] — [c] is a cycle visiting every node of [g]
    ([?subset] restricts "every node" to those satisfying the predicate,
    as needed for Hamiltonicity of the faulty subgraph B-star). *)

val edges_of_cycle : int array -> (int * int) list
(** The k directed edges of the cycle, including the wrap edge. *)

val edge_disjoint : int array -> int array -> bool
(** No directed edge (including wrap edges) occurs in both cycles. *)

val pairwise_edge_disjoint : int array list -> bool

val avoids_nodes : int array -> (int -> bool) -> bool
(** No node of the cycle satisfies the predicate. *)

val avoids_edges : int array -> ((int * int) -> bool) -> bool

val rotate_to : int array -> int -> int array
(** [rotate_to c v] re-roots the cycle so it starts at [v].
    @raise Not_found when [v] is not on the cycle. *)

val mem : int array -> int -> bool

val successor_in_cycle : int array -> int -> int
(** The node following [v] on the cycle. @raise Not_found if absent. *)

val of_successor_map : start:int -> (int -> int) -> int array option
(** Follow a successor function from [start] until it returns to
    [start], failing with [None] if a node repeats before closing or
    after 2{^30} steps. *)

val of_successor_array_n : start:int -> int array -> int array option
(** Flat-state variant of {!of_successor_map} with the successor map as
    an array over node ids [0 .. n−1] ([n = Array.length succ]): a
    bitset instead of a Hashtbl.  Also fails with [None] if the walk
    leaves the id range; negative entries fail it, so −1 works as "no
    successor". *)

val of_successor_flat_n : start:int -> Flatarr.t -> int array option
(** {!of_successor_array_n} over an off-heap successor map (the cycle
    itself still comes back as a fresh heap array). *)
