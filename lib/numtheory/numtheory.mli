(** Elementary number theory.

    This module is the arithmetic substrate for Chapters 3 and 4 of the
    thesis: Euler's totient and the Möbius function drive the necklace
    counting formulas (Propositions 4.1/4.2), factorization and primitive
    roots drive the disjoint-Hamiltonian-cycle strategies (Lemma 3.5,
    Propositions 3.1–3.4).

    All functions operate on OCaml [int]s and assume their results fit;
    the sizes used by the reproduction (d ≤ 64, dⁿ ≤ ~10⁷) are far below
    overflow territory on a 63-bit [int]. *)

val gcd : int -> int -> int
(** [gcd a b] is the non-negative greatest common divisor of [a] and [b].
    [gcd 0 0 = 0]. *)

val lcm : int -> int -> int
(** [lcm a b] is the least common multiple, non-negative; [lcm 0 _ = 0]. *)

val pow : int -> int -> int
(** [pow b e] is [b]{^ [e]} by binary exponentiation.
    @raise Invalid_argument if [e < 0]. *)

val pow_mod : int -> int -> int -> int
(** [pow_mod b e m] is [b]{^ [e]} mod [m] for [m ≥ 1], [e ≥ 0].
    Intermediate products are taken mod [m]; [m] must satisfy
    [m*m ≤ max_int]. *)

val is_prime : int -> bool
(** Deterministic primality by trial division; intended range ≤ 10¹². *)

val factorize : int -> (int * int) list
(** [factorize n] is the prime factorization of [n ≥ 1] as
    [(p₁,e₁); …; (p_k,e_k)] with p₁ < p₂ < …; [factorize 1 = []]. *)

val divisors : int -> int list
(** All positive divisors of [n ≥ 1], sorted increasingly. *)

val mobius : int -> int
(** Möbius μ(n) for [n ≥ 1]: 1 if n = 1, (−1)^k for squarefree n with k
    prime factors, 0 otherwise. *)

val euler_phi : int -> int
(** Euler totient φ(n) for [n ≥ 1]. *)

val is_prime_power : int -> (int * int) option
(** [is_prime_power d] is [Some (p, e)] when [d = p^e] with [p] prime and
    [e ≥ 1], [None] otherwise (including d ≤ 1). *)

val primitive_root : int -> int
(** [primitive_root p] is the least primitive root of ℤ_p for prime [p].
    @raise Invalid_argument if [p] is not prime. *)

val is_primitive_root : int -> int -> bool
(** [is_primitive_root g p] tests whether [g] generates ℤ_p^*. *)

val discrete_log : int -> int -> int -> int option
(** [discrete_log g y p] is the least [k ≥ 0] with [g^k ≡ y (mod p)],
    searching k < p−1 by enumeration (fine for the small p used here). *)

val order_mod : int -> int -> int
(** [order_mod a m] is the multiplicative order of [a] modulo [m] for
    [gcd a m = 1], [m ≥ 2].
    @raise Invalid_argument if [gcd a m ≠ 1]. *)

val binomial : int -> int -> int
(** [binomial n k] = C(n,k); 0 when [k < 0] or [k > n]. *)

val multinomial : int list -> int
(** [multinomial [k₀;…;k_{m−1}]] = (Σkᵢ)! / ∏ kᵢ!; all kᵢ must be ≥ 0. *)

val quadratic_residue : int -> int -> bool
(** [quadratic_residue a p] for odd prime [p] and [a] not ≡ 0: true iff
    [a] is a QR mod [p] (Euler's criterion). *)

val sum_over_divisors : int -> (int -> int) -> int
(** [sum_over_divisors n f] is the sum of [f t] over all divisors t of n. *)
