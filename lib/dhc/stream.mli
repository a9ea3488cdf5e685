(** Chapter-3 cycles as streams: a cycle of B(d,n) represented by its
    successor function instead of a dⁿ-length array.

    Every construction of §3.1–§3.3 — the maximal cycles s + C, their
    Hamiltonian extensions H_s, and Rees products across coprime factors
    — has a successor that is pure word/GF(d) register arithmetic, so a
    cycle is an O(n)-memory value: walking it costs O(n) table lookups
    per step and allocates nothing.  Materializing ψ(d) disjoint HCs of
    B(2,22) as arrays needs gigabytes; as streams they are a handful of
    closures. *)

type t = {
  p : Debruijn.Word.params;
  start : int;  (** a node on the cycle; walks and [to_nodes] begin here *)
  length : int;  (** number of nodes on the cycle (dⁿ − 1 or dⁿ) *)
  succ : int -> int;  (** the successor function; total on [0, dⁿ) *)
}

val of_shift : Shift_cycles.t -> int -> t
(** s + C as a stream (length dⁿ − 1, omits sⁿ); node order matches
    [Shift_cycles.shifted] under the default LFSR seed. *)

val hamiltonize : Shift_cycles.t -> s:int -> k:int -> t
(** H_s with replacement cycle k ≠ s, as a successor transformer over
    {!of_shift}: two overrides route exit → sⁿ → entry (Eq. 3.3).  Node
    order matches [Shift_cycles.hamiltonize].
    @raise Invalid_argument if k = s. *)

val product : s:int -> t:int -> t -> t -> t
(** The Rees product (A,B) (Lemma 3.6) as a successor transformer:
    project a B(st,n) node onto its base-s and base-t digit planes, step
    each factor, zip back.  Node order matches [Compose.product].
    @raise Invalid_argument unless gcd(s,t) = 1 and the factors are
    streams over B(s,n) and B(t,n). *)

val of_cycle : Debruijn.Word.params -> int array -> t
(** Adapt a materialized node cycle (successor via hashtable) — the
    bridge for constructions with no arithmetic successor, e.g. the
    [Mdb] fallback decompositions.
    @raise Invalid_argument on a repeated node, and the stream's [succ]
    raises on nodes off the cycle. *)

val iter : t -> (int -> unit) -> unit
(** Visit the [length] nodes from [start], allocation-free. *)

val fold_edges : t -> init:'a -> f:('a -> int -> int -> 'a) -> 'a
(** Fold over the [length] edges (u, succ u) from [start]. *)

val to_nodes : t -> int array
(** Materialize the node cycle (for tests and small instances). *)

val to_sequence : t -> int array
(** Materialize the digit sequence (first digit of each node) — the
    format of the seed Chapter-3 API. *)

val is_cycle : t -> bool
(** The walk first re-enters [start] at exactly [length] steps — O(1)
    memory. *)

val is_hamiltonian : t -> bool
(** [is_cycle] and [length] = dⁿ: visits every node, O(1) memory. *)

val is_de_bruijn_walk : t -> bool
(** Every step is a De Bruijn edge (suffix/prefix arithmetic). *)

val avoids : t -> (int -> int -> bool) -> bool
(** [avoids t is_fault]: no edge of the walk satisfies [is_fault u v];
    stops at the first hit. *)

val contains_edge : t -> int -> int -> bool
(** For Hamiltonian streams: is u → v an edge of the cycle?  One [succ]
    probe — the O(1) survivor test of Proposition 3.4. *)

val edge_disjoint : t -> t -> bool
(** Pairwise edge-disjointness of two Hamiltonian streams by walking one
    and probing the other's successor — O(dⁿ·n) time, O(1) memory.
    @raise Invalid_argument if either stream is not full-length. *)
