(** The family {s + C | s ∈ GF(d)} of edge-disjoint (dⁿ−1)-cycles and
    the Hamiltonian extensions H_s (§3.2.1).

    - Lemma 3.1: s + C is a cycle;
    - Lemma 3.2: it satisfies the affine recurrence with constant
      s(1 − ω);
    - Lemma 3.3: the d cycles are pairwise edge-disjoint (they partition
      the non-loop edges of B(d,n));
    - s + C omits exactly the node sⁿ, which can be inserted by
      replacing the (n+1)-window α s^{n−1} α̂ with α sⁿ α̂ where
      (Eq. 3.3) α̂ = a₀α + s(1 − a₀); picking the companion cycle
      k + C containing the new edge sⁿα̂ fixes α̂ = sω + k(1 − ω). *)

type t = {
  lfsr : Lfsr.t;
  p : Debruijn.Word.params;
  base : int array Lazy.t;
      (** the maximal cycle C — lazy so stream-only users (successor
          arithmetic) never pay the dⁿ materialization *)
}

val make : d:int -> n:int -> t
(** @raise Invalid_argument unless d is a prime power ≥ 2 and n ≥ 2. *)

val make_with_poly : d:int -> n:int -> Galois.Gf_poly.t -> t
(** Use a caller-supplied primitive polynomial of degree n (e.g. the
    thesis's Example 3.1 polynomial x² − x − 3 over GF(5)). *)

val shifted : t -> int -> int array
(** s + C as a sequence. *)

val omega : t -> int
val a0 : t -> int

val alpha_hat : t -> s:int -> k:int -> int
(** α̂ = sω + k(1 − ω): the digit following sⁿ in k + C. *)

val alpha_for : t -> s:int -> alpha_hat:int -> int
(** α = s + a₀^{-1}(α̂ − s), inverting Eq. 3.3. *)

val insertion_nodes : t -> s:int -> k:int -> int * int * int
(** [(exit, sⁿ, entry)] — the nodes α s^{n−1}, sⁿ, s^{n−1} α̂ of the H_s
    insertion with replacement cycle k (Eq. 3.3): H_s reroutes the
    s + C edge exit → entry as exit → sⁿ → entry.
    @raise Invalid_argument if k = s. *)

val start_node : t -> int -> int
(** The node at position 0 of [shifted t s] viewed as a node sequence
    (the default-seed window s…s(s+1)). *)

val owner_of_edge : t -> int * int -> int
(** [owner_of_edge t (u, v)]: the unique s with the edge u → v of
    B(d,n) on s + C (assuming it is not a loop); computed from the
    affine recurrence on its (n+1)-digit window w as
    s = (w_n − Σ aⱼwⱼ)·(1 − ω)^{-1}. *)

val hamiltonize : t -> s:int -> k:int -> int array
(** H_s with replacement cycle k ≠ s: the sequence of length dⁿ whose
    cycle is Hamiltonian in B(d,n); its two new edges α sⁿ and sⁿ α̂
    lie in k + C and (2s − k) + C respectively.
    @raise Invalid_argument if k = s. *)

val hs_conflicts : t -> f:(int -> int) -> int -> int -> bool
(** Lemma 3.4 predicate: do H_x and H_y (built with replacement
    function f) share an edge?  y ∈ {f(x), 2x − f(x)} ∨
    x ∈ {f(y), 2y − f(y)}. *)
