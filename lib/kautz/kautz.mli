(** Kautz digraphs K(d,n).

    Chapter 5 of the thesis singles out Kautz graphs (with butterflies)
    as the next topologies whose disjoint-Hamiltonian-cycle structure
    should be determined; this module provides the graphs themselves
    plus the structural facts needed to probe that question with
    {!Hamsearch}.

    K(d,n) has nodes x₁…xₙ over a (d+1)-letter alphabet with adjacent
    letters distinct, and edges x₁…xₙ → x₂…xₙa for every a ≠ xₙ; it has
    (d+1)·d^{n−1} nodes, in- and out-degree d, diameter n, and satisfies
    K(d,n+1) = L(K(d,n)).  Nodes are encoded as integers: the leading
    letter in [0,d] followed by n−1 "relative" digits δ ∈ [0,d) meaning
    xᵢ₊₁ = (xᵢ + 1 + δ) mod (d+1). *)

type t = {
  d : int;  (** degree; the alphabet has d+1 letters *)
  n : int;
  size : int;  (** (d+1)·d^{n−1} *)
  graph : Graphlib.Digraph.t;
}

val create : d:int -> n:int -> t
(** @raise Invalid_argument unless d ≥ 2 and n ≥ 1 and the size fits. *)

val encode : t -> int array -> int
(** Letters x₁…xₙ (adjacent distinct) to the node code.
    @raise Invalid_argument on a repeated adjacent letter. *)

val decode : t -> int -> int array

val successors : t -> int -> int list
(** The d out-neighbors, in increasing letter order. *)

val to_string : t -> int -> string

val edge_as_higher_node : t -> int * int -> int
(** Line-graph correspondence: an edge of K(d,n) is a node of K(d,n+1)
    (the concatenated word). *)
