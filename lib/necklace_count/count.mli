(** Chapter 4: counting necklaces by Möbius inversion.

    Propositions 4.1/4.2: if Γ(m) counts the m-tuples satisfying a
    rotation-invariant, period-compatible predicate (Conditions A/B),
    then the necklaces of length t through such nodes in B(d,n) number
    (1/t)·Σ_{j | t} Γ(j)·μ(t/j), and in total
    (1/n)·Σ_{j | n} Γ(j)·φ(n/j).

    Instantiations: all nodes (counting by length), nodes of a given
    weight (binary and d-ary), and nodes of a given type. *)

val of_length : d:int -> n:int -> t:int -> int
(** Number of necklaces of length [t] in B(d,n); 0 unless t divides n. *)

val total : d:int -> n:int -> int
(** Total number of necklaces in B(d,n). *)

val tuples_of_weight : d:int -> n:int -> k:int -> int
(** c_d(n,k): the number of d-ary n-tuples of weight k, by the
    inclusion–exclusion closed form
    Σᵢ (−1)ⁱ C(n,i) C(n−1+k−di, n−1). *)

val of_weight_and_length : d:int -> n:int -> k:int -> t:int -> int
(** Necklaces of length [t] in B(d,n) whose nodes have weight [k]. *)

val of_weight : d:int -> n:int -> k:int -> int
(** All necklaces of weight [k] in B(d,n). *)

val tuples_of_type : int list -> int
(** Number of tuples of type K = [k₀;…;k_{d−1}]: (Σkᵢ)!/∏kᵢ!. *)

val of_type_and_length : n:int -> counts:int list -> t:int -> int
(** Necklaces of length [t] in B(d,n) of type [counts] (which must sum
    to n). *)

val of_type : n:int -> counts:int list -> int
(** All necklaces of the given type. *)

(* Brute-force references (exhaustive enumeration) used by the tests and
   benches to validate the closed forms. *)

val enumerate_of_length : d:int -> n:int -> t:int -> int
val enumerate_total : d:int -> n:int -> int
val enumerate_of_weight : d:int -> n:int -> k:int -> int
val enumerate_of_weight_and_length : d:int -> n:int -> k:int -> t:int -> int
val enumerate_of_type : d:int -> n:int -> counts:int list -> int
