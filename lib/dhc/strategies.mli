(** Strategies 1–3 (§3.2.1): choosing the replacement function f so that
    a large subset of {H_s} is pairwise edge-disjoint.

    For d = pᵉ:
    - {b Strategy 1} (p = 2): f(x) = 0 for x ≠ 0.  Since 2 = 0 in
      characteristic 2, H_x and H_y conflict only through 0, giving the
      d−1 disjoint HCs {H_s | s ≠ 0} — optimal.
    - {b Strategy 2} (2 = λ^A + λ^B in ℤ_p, A and B odd, λ a primitive
      root): f(x) = λ^A·x for x ≠ 0, f(0) = λ.  Conflicts stay inside
      cosets of J = ⟨λ⟩ and flip parity of the λ-exponent, so the even
      powers in each coset — (d−1)/2 cycles — are disjoint, and H₀ can
      be added when (p−1)/2 is even.
    - {b Strategy 3} (2 = λ^A, A odd): same shape without H₀.

    Lemma 3.5 guarantees one of the two odd-p conditions holds for any
    odd prime. *)

type choice =
  | S1  (** p = 2 *)
  | S2 of { lambda : int; a : int; b : int }  (** 2 = λ^a + λ^b, a b odd *)
  | S3 of { lambda : int; a : int }  (** 2 = λ^a, a odd *)

val choose : p:int -> choice
(** Select a strategy for the prime [p]: S1 for 2; otherwise prefer S2
    when it exists with (p−1)/2 even (so H₀ can join), searching over
    all primitive roots; S3 or S2 otherwise.
    @raise Invalid_argument if [p] is not prime. *)

val condition_b_holds : p:int -> bool
(** Does some primitive root λ of ℤ_p give 2 = λ^A + λ^B with odd A, B? *)

val replacement_function : Shift_cycles.t -> choice -> int -> int
(** The f of the chosen strategy, as a function on field elements
    (f(0) is λ for S2/S3 and unspecified-but-total 1 for S1, whose H₀
    is never used). *)

val selected_shifts : Galois.Gf.t -> choice -> int list
(** The set {s | H_s ∈ L} of shifts whose Hamiltonian cycles are
    pairwise disjoint: nonzero elements for S1; even-λ-power coset
    members (plus 0 when admissible) for S2/S3. *)

val disjoint_hamiltonian_cycles : d:int -> n:int -> int array list
(** ψ(d)-many pairwise edge-disjoint Hamiltonian cycles of B(d,n), as
    sequences of length dⁿ — for prime-power d, n ≥ 2 (Proposition 3.1;
    use {!Compose} for general d). *)

val disjoint_hamiltonian_streams : d:int -> n:int -> Stream.t list
(** The same ψ(d) cycles as O(n)-memory streams, in the same order with
    the same node order. *)
