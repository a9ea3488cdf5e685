(** Fault-free Hamiltonian cycles under edge failures (§3.3), streaming.

    Proposition 3.3 (constructive): B(d,n) admits an HC avoiding any
    f ≤ φ(d) = Σpᵢᵉⁱ − 2k faulty edges.
    - Prime-power d: the d cycles s + C are edge-disjoint, so some s + C
      is fault-free; of its d−1 insertion pairs {αᵢsⁿ, sⁿα̂ᵢ} a fault
      kills at most one, so some pair survives and H_s is fault-free.
    - Composite d = s·t (coprime): every edge of (A,B) projects to an
      edge of A and an edge of B; route each fault to one side, at most
      φ(s) to A and φ(t) to B, and recurse.

    Proposition 3.4 adds the alternative of picking a fault-free member
    of the ψ(d) disjoint HCs, tolerating ψ(d)−1 faults.

    This engine works over {!Stream.t} successor functions: the search
    touches only the f faults and O(d) insertion-edge probes, never a
    dⁿ array, so rings of million-edge networks fit in O(n) memory.
    Outputs are pinned node-for-node to the frozen seed implementation,
    a test oracle in [test/oracles]. *)

type fault = int * int
(** A faulty edge as a node pair of B(d,n). *)

val validate_faults : Debruijn.Word.params -> fault list -> unit
(** @raise Invalid_argument if a fault has a node out of range or is not
    a De Bruijn edge. *)

(** Constant-time fault-set membership.

    Edges are keyed by {!Debruijn.Word.edge_code}: a dense
    {!Graphlib.Bitset} when the code space dⁿ·d is small enough
    (≤ 2²⁷), a hashtable beyond that — either way [mem] is O(1), not an
    O(f) association-list scan. *)
module Faults : sig
  type t

  val make : Debruijn.Word.params -> fault list -> t
  (** Validates the faults and builds the probe structure. *)

  val count : t -> int

  val mem : t -> int -> int -> bool
  (** [mem t u v] — (u, v) must be a De Bruijn edge. *)
end

(** {1 Streaming engine} *)

val hc_avoiding_stream : d:int -> n:int -> faults:fault list -> Stream.t option
(** The Proposition 3.3 construction as an O(n)-memory stream; [None] if
    the search fails (guaranteed to succeed for |faults| ≤ φ(d); may
    also succeed beyond).  Requires n ≥ 2.  Same search order — hence
    same answer — as the seed implementation's [hc_avoiding]. *)

val hc_avoiding_via_disjoint_stream : d:int -> n:int -> faults:fault list -> Stream.t option
(** Pick a fault-free member of the ψ(d) disjoint HC streams — handles
    up to ψ(d)−1 faults.  Each candidate is screened with O(1) successor
    probes per fault ({!Stream.contains_edge}), not a dⁿ walk. *)

val best_hc_avoiding_stream : d:int -> n:int -> faults:fault list -> Stream.t option
(** Try {!hc_avoiding_stream}, falling back to
    {!hc_avoiding_via_disjoint_stream} — realizes the MAX(ψ(d)−1, φ(d))
    bound of Proposition 3.4. *)

val surviving_disjoint_streams :
  d:int -> n:int -> faults:fault list -> Stream.t list
(** The members of the ψ(d) disjoint family ({!Compose.disjoint_streams_upto})
    avoiding every given fault, in family order — what the multi-ring
    striped collective runs over under link failures.  With f faults at
    least ψ(d) − f members survive (each fault kills at most one ring).
    Screening is O(ψ(d)·f·n) successor probes, never a dⁿ walk. *)

(** {1 Materializing wrappers (the seed API)} *)

val hc_avoiding : d:int -> n:int -> faults:fault list -> int array option
(** {!hc_avoiding_stream} materialized to a digit sequence of length
    dⁿ. *)

val hc_avoiding_via_disjoint : d:int -> n:int -> faults:fault list -> int array option
(** {!hc_avoiding_via_disjoint_stream} materialized. *)

val best_hc_avoiding : d:int -> n:int -> faults:fault list -> int array option
(** {!best_hc_avoiding_stream} materialized. *)

val via_node_masking : d:int -> n:int -> faults:fault list -> int array option
(** The strawman the chapter opens with: declare every endpoint of a
    faulty link faulty and fall back to the Chapter 2 node-fault
    algorithm.  Always succeeds when anything survives, but needlessly
    drops live processors — the ring is not Hamiltonian.  Exposed for
    the ablation benchmark comparing it against {!hc_avoiding}. *)

val worst_case_edge_faults : d:int -> n:int -> int -> fault list
(** [worst_case_edge_faults ~d ~n f] gives f of the d−1 non-loop edges
    terminating at node 0ⁿ — removing all d−1 of them makes the graph
    non-Hamiltonian, so d−2 is the best possible tolerance. *)
