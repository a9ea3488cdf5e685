(** The Rees product of Hamiltonian cycles (Lemmas 3.6/3.7) and disjoint
    HCs for arbitrary d (Proposition 3.2).

    For gcd(s,t) = 1, HCs A of B(s,n) and B of B(t,n) combine into the
    HC (A,B) of B(st,n) whose i-th element is a_{i mod sⁿ}·t +
    b_{i mod tⁿ}; products are disjoint as soon as one factor pair is. *)

val product : s:int -> t:int -> int array -> int array -> int array
(** [product ~s ~t a b] — [a] must have length sⁿ and [b] length tⁿ for
    a common n, and gcd(s,t) = 1.
    @raise Invalid_argument otherwise. *)

val disjoint_hamiltonian_cycles : d:int -> n:int -> int array list
(** ψ(d) pairwise edge-disjoint HCs of B(d,n) for any d ≥ 2, n ≥ 2,
    built by composing the prime-power families over the factorization
    of d. *)

val disjoint_hamiltonian_streams : d:int -> n:int -> Stream.t list
(** The same ψ(d) cycles as O(n)-memory {!Stream.t}s (same order, same
    node order): materializing the family costs ψ(d)·dⁿ words, the
    streams a handful of closures each. *)

val disjoint_streams_upto : d:int -> n:int -> k:int -> Stream.t list
(** The first [k] members of {!disjoint_hamiltonian_streams} — the
    enumeration the multi-ring collective stripes over.  Every returned
    pair is edge-disjoint ({!Stream.edge_disjoint}); the family is
    guaranteed for exactly ψ(d) members, so the enumeration fails
    cleanly past it.
    @raise Invalid_argument unless 1 ≤ k ≤ ψ(d). *)
