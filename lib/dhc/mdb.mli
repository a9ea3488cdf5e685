(** The modified De Bruijn graph MB(d,n) and its Hamiltonian
    decomposition (§3.2.3).

    B(d,n) itself cannot be decomposed into HCs (loops, and at best d−1
    disjoint HCs exist).  MB(d,n) reroutes one parallel edge (p-edge)
    per shifted cycle through the missing constant node so that the d
    cycles {H_s} become Hamiltonian and partition all dⁿ·d edges:

    - d an odd prime power: pick a p-edge E = (αβ̃, βα̃) on C; in s + C
      replace E+s by the two edges ((α+s)(β+s)̃ → sⁿ) and
      (sⁿ → (β+s)(α+s)̃).
    - d = 2: insert 0ⁿ into C between 10ⁿ⁻¹ and 0ⁿ⁻¹1; delete 0ⁿ from
      1+C and reroute its alternating p-edge through 0ⁿ and 1ⁿ
      (Example 3.6).

    The resulting multigraph is d-in d-out regular and its undirected
    version contains UB(d,n). *)

type t = {
  p : Debruijn.Word.params;
  cycles : int array list;  (** d Hamiltonian node-cycles covering every edge *)
  graph : Graphlib.Digraph.t;  (** MB(d,n): the union of the cycles' edges *)
}

val build : d:int -> n:int -> t
(** Requires d = 2 with n ≥ 3, or an odd prime power d with n ≥ 2 (for
    n = 2 a p-edge with β ≠ 0 is selected so the rerouted edges stay
    outside B(d,2); for d = 2, n = 2 the construction is impossible
    because 1ⁿ → 10̃ is a real De Bruijn edge).
    @raise Invalid_argument otherwise. *)

val verify : t -> bool
(** All cycles Hamiltonian in [graph], pairwise edge-disjoint, the graph
    d-regular (in and out), and UMB ⊇ UB (every UB(d,n) adjacency
    appears in MB in some orientation). *)

val new_edge_count : t -> int
(** Number of MB edges that are not B(d,n) edges. *)

val stream_cycles : t -> Stream.t list
(** The decomposition's cycles as {!Stream.t}s (table-backed: MB cycles
    reroute through the constant nodes, so they have no LFSR successor
    form). *)
