(** d-ary words of length n, encoded as integers.

    A node x₁x₂…xₙ of B(d,n) (x₁ the most significant digit, matching
    the thesis's ordering of n-tuples as base-d numbers) is encoded as
    the integer Σ xᵢ·d^(n−i).  All functions take the parameters [d]
    (alphabet size ≥ 2) and [n] (word length ≥ 1) explicitly. *)

type params = { d : int; n : int; size : int (** dⁿ *) }

val params : d:int -> n:int -> params
(** @raise Invalid_argument unless d ≥ 2, n ≥ 1 and dⁿ fits an int. *)

val encode : params -> int array -> int
(** Digits x₁…xₙ (each in [0,d)) to the integer code. *)

val decode : params -> int -> int array
(** Integer code to digit array of length n. *)

val digit : params -> int -> int -> int
(** [digit p x i] is xᵢ for 1 ≤ i ≤ n (the thesis indexes digits from 1). *)

val first_digit : params -> int -> int
(** x₁. *)

val last_digit : params -> int -> int
(** xₙ. *)

val prefix : params -> int -> int
(** x₁…x_{n−1} as an (n−1)-digit code — a word of ℤ_d^{n−1}. *)

val suffix : params -> int -> int
(** x₂…xₙ as an (n−1)-digit code. *)

val cons : params -> int -> int -> int
(** [cons p a w] is the n-digit word a·w for an (n−1)-digit [w]. *)

val snoc : params -> int -> int -> int
(** [snoc p w a] is the n-digit word w·a for an (n−1)-digit [w]. *)

val rotl : params -> int -> int
(** Left rotation π¹: x₁x₂…xₙ ↦ x₂…xₙx₁. *)

val rotl_by : params -> int -> int -> int
(** πⁱ for any integer i (negative = right rotation). *)

val weight : params -> int -> int
(** wt(x): the sum of the digits. *)

val count_digit : params -> int -> int -> int
(** [count_digit p a x] is wt_a(x): the number of occurrences of digit a. *)

val period : params -> int -> int
(** The least t > 0 with πᵗ(x) = x; always divides n. *)

val is_aperiodic : params -> int -> bool

val constant : params -> int -> int
(** [constant p a] is the word aⁿ. *)

val alternating : params -> int -> int -> int
(** [alternating p a b] is the thesis's n-tuple "ab…ab" (n even) or
    "ab…aba" (n odd) — αβ with the value of n implicit. *)

val successors : params -> int -> int list
(** De Bruijn successors x₂…xₙ·a for a = 0..d−1, in digit order. *)

val predecessors : params -> int -> int list
(** De Bruijn predecessors a·x₁…x_{n−1}, in digit order. *)

val iter_succs : params -> int -> (int -> unit) -> unit
(** [iter_succs p x f] calls [f] on the d successors in the same order
    as {!successors}, allocating nothing.  No range check on [x]. *)

val is_edge : params -> int -> int -> bool
(** [is_edge p u v]: is u → v an edge of B(d,n), i.e. suffix u =
    prefix v?  O(1) arithmetic, loops at the constant words included —
    the same edge set as [Graph.b p].  False, never an exception, when
    [u] or [v] lies outside [0, dⁿ). *)

val edge_code : params -> int -> int -> int
(** [edge_code p u v] packs the De Bruijn edge u → v into the integer
    u·d + vₙ ∈ [0, dⁿ·d) — the (n+1)-digit window as a number, the key
    the flat fault tables ({!Dhc.Edge_fault}) index by.
    @raise Invalid_argument if u → v is not a De Bruijn edge. *)

val edge_of_code : params -> int -> int * int
(** Inverse of {!edge_code}. *)

val to_string : params -> int -> string
(** Digits concatenated, e.g. ["0112"]. *)

val of_string : params -> string -> int
(** Inverse of [to_string] for digits 0-9 (d ≤ 10). *)

val all : params -> int list
(** All dⁿ words in increasing order. *)
