(** The De Bruijn digraph B(d,n) and undirected UB(d,n) as {!Digraph.t}
    values on node codes, plus the line-graph correspondence
    B(d,n) = L(B(d,n−1)) used in the worst-case optimality argument of
    §2.5. *)

val b : Word.params -> Graphlib.Digraph.t
(** B(d,n): dⁿ nodes, edges x₁…xₙ → x₂…xₙa for every digit a (the d
    constant nodes carry loops). *)

val ub : Word.params -> Graphlib.Digraph.t
(** UB(d,n): loops deleted, orientation removed, parallel edges merged.
    Represented as a symmetric digraph with one edge per direction. *)

val degree_census : Graphlib.Digraph.t -> (int * int) list
(** Sorted [(degree, how_many)] pairs of out-degrees — for UB this
    checks the [PR82] census: d nodes of degree 2d−2, d(d−1) of degree
    2d−1 and dⁿ − d² of degree 2d. *)

val edge_as_higher_node : Word.params -> int * int -> int
(** The line-graph correspondence: the edge x₁…x_{n} → x₂…x_{n}a of
    B(d,n) is the node x₁…xₙa of B(d,n+1).  The argument [params] are
    those of B(d,n); the result is a node code of B(d,n+1). *)

val higher_node_as_edge : Word.params -> int -> int * int
(** Inverse direction: a node x₁…x_{n+1} of B(d,n+1) (params again of
    B(d,n)) is the edge x₁…xₙ → x₂…x_{n+1} of B(d,n). *)

val cycle_to_lower_circuit : Word.params -> int array -> int list
(** A cycle in B(d,n) (params of B(d,n)) maps to the closed circuit in
    B(d,n−1) whose node sequence is the (n−1)-prefixes; requires n ≥ 2.
    The result repeats its first node at the end. *)
