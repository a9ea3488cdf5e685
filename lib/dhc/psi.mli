(** The counting functions of Chapter 3: ψ(d) (disjoint HCs obtained by
    the constructions, Proposition 3.1/3.2 and Table 3.1), the
    edge-fault tolerance φ(d) = Σ pᵢᵉⁱ − 2k (Proposition 3.3, written
    cp(d) in the thesis), and MAX(ψ(d)−1, φ(d)) (Proposition 3.4 and
    Table 3.2). *)

val psi : int -> int
(** ψ(d) = ∏ ψ(pᵢᵉⁱ) over the factorization of d ≥ 2, where ψ(pᵉ) =
    pᵉ − 1 when p = 2; (pᵉ+1)/2 when (p−1)/2 is even and condition (b)
    of Lemma 3.5 holds; (pᵉ−1)/2 otherwise. *)

val phi_bound : int -> int
(** φ(d) = p₁ᵉ¹ + … + p_kᵉᵏ − 2k: the number of edge faults tolerated by
    the Proposition 3.3 construction. *)

val max_tolerance : int -> int
(** MAX(ψ(d) − 1, φ(d)) — Proposition 3.4's fault bound. *)

type bounds = { psi : int; phi : int; max_ : int }
(** One row of Tables 3.1–3.2: ψ(d), φ(d) and MAX(ψ(d)−1, φ(d)). *)

val bounds : int -> bounds
(** All three tolerance figures for d in one call. *)

val psi_lower_bound_corollary : int -> int
(** Corollary 3.1's closed form 2^{−k}·∏(pᵢᵉⁱ − 1) rounded up — a lower
    bound on ψ(d) exposed for cross-checking. *)
