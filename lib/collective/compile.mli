(** Lowering ring collectives to flat tables — the shared front end of
    both executors.

    {!lower} validates a (rings, rank-boundary) configuration once and
    compiles it into flat arrays: per-rank successor ranks, segment
    hop-lengths and their prefix sums ({!Graphlib.Flatarr} storage),
    next to the driven node cycles themselves.  The Netsim executor
    ({!Exec}) uses the tables for its role maps and congestion
    accounting; the compiled executor ({!Fastpath}) runs the whole
    schedule off them without ever materializing the network.

    The closed-form accounting helpers ({!completion_rounds},
    {!max_edge_share}) reproduce the simulator's self-timed pipelining
    figures exactly; the agreement is qcheck-pinned against
    {!Netsim.Simulator} runs in the test suite. *)

(** Constant-time membership for directed-edge fault sets, keyed by the
    packed integer u·dⁿ + v — the same hashed/packed-key trick as
    {!Dhc.Edge_fault.Faults}, but accepting arbitrary node pairs (a
    fault that is not a real De Bruijn edge simply never matches).
    Replaces the O(E·|F|) [List.exists] probe inside
    {!Graphlib.Digraph.remove_edges} predicates. *)
module Fault_probe : sig
  type t

  val make : size:int -> bidirectional:bool -> (int * int) list -> t
  (** [make ~size ~bidirectional faults] — under [bidirectional] each
      fault kills both directions of the link.  Pairs with a node
      outside [0, size) are kept out of the table (they cannot name a
      real edge, so they must never match one). *)

  val mem : t -> int -> int -> bool
  val is_empty : t -> bool
end

val resolve_ranks :
  what:string -> clamp_ranks:bool -> ranks:int -> length:int -> int * bool
(** The rank-count policy shared by both executors: [ranks > length]
    raises [Invalid_argument] unless [clamp_ranks] is set, in which
    case the count is clamped to [length] and the returned flag is
    [true] (the clamp is surfaced to callers through the report's
    [ranks] field).  A resolved count below 2 always raises.  [what]
    prefixes the error messages. *)

type t = {
  p : Debruijn.Word.params;
  nrings : int;  (** driven rings, reversed directions appended *)
  length : int;  (** ring length L *)
  ranks : int;  (** logical ranks R, after any clamp *)
  clamped : bool;
  cycles : int array array;  (** all driven node cycles, row-per-ring *)
  bounds : int array;  (** rank → ring position ({!Schedule.boundaries}) *)
  succ_rank : Graphlib.Flatarr.t;  (** rank → successor rank, (r+1) mod R *)
  seg_len : Graphlib.Flatarr.t;  (** rank r → hops from rank r to rank r+1 *)
  seg_pref : Graphlib.Flatarr.t;
      (** R+1 prefix sums of [seg_len]; [seg_pref.{r}] = hops before
          rank r (= [bounds.(r)]), [seg_pref.{R}] = L *)
  bidirectional : bool;
      (** [cycles] holds each ring's reversal too, so ring edges may
          run against De Bruijn edges ({!max_edge_share} sizes its
          table by it) *)
  probe : Fault_probe.t;  (** the compiled [edge_faults] probe *)
}

val lower :
  what:string ->
  clamp_ranks:bool ->
  edge_faults:(int * int) list ->
  bidirectional:bool ->
  ranks:int ->
  chunk_words:int ->
  p:Debruijn.Word.params ->
  faulty:(int -> bool) ->
  rings:int array list ->
  t
(** Validate and compile.  Checks (same contract, and same
    [Invalid_argument] messages modulo the [what] prefix, as the
    historical {!Exec.run} front end): at least one ring, all of equal
    length ≥ 2, [chunk_words ≥ 1], every ring node in range, non-faulty
    and visited at most once per ring, and {!resolve_ranks}.

    Edges are then screened arithmetically: consecutive ring nodes must
    be De Bruijn-adjacent (suffix(u) = prefix(v), either direction
    under [bidirectional]) and must not hit the [edge_faults] probe.  A
    bad edge raises {!Netsim.Simulator.Illegal_send} carrying the round
    at which the simulator would first attempt that send — the phase-0
    chunk wave reaches offset h of every segment at round h, so the
    earliest offending (round, src) is exact; with several bad edges at
    the same (round, src) the lowest-indexed ring wins. *)

val completion_rounds : t -> phases:int -> int
(** Rounds to quiescence of the self-timed execution, in closed form.

    Rank r's phase-p receive lands at round A_r(p) = Σ_{i=0}^{p}
    len[(r−1−i) mod R]: its predecessor's phase-p send leaves at round
    A_{r−1}(p−1) (phase-0 at round 0) and takes one round per hop of
    the segment.  The run's last activity is the latest final receive,
    and the simulator counts executed rounds, so the total is
    max_r A_r(phases−1) + 1 — evaluated per rank via the [seg_pref]
    prefix sums extended periodically (any R consecutive segments sum
    to L). *)

val max_edge_share : t -> int
(** The deepest ring-sharing of any directed link (1 for a single ring
    or any edge-disjoint family), counted in one pass over the ring
    edges with one counter per De Bruijn edge slot.  A forward edge u→v
    is named by (first digit of u, v), slot (u / dⁿ⁻¹)·dⁿ + v, of a
    d·dⁿ table; under [bidirectional] an edge that only runs against
    the De Bruijn edge v→u takes slot (v / dⁿ⁻¹)·dⁿ + u of a second
    d·dⁿ half.  The slots are injective on directed node pairs, so the
    count is exact for every family {!lower} accepts, with no bound on
    the number of rings (byte counters spill into a hash table past
    255).  O(nrings·L) time, d·dⁿ bytes (twice that bidirectional);
    O(1) when [nrings = 1], since a cycle of distinct nodes never
    repeats a directed edge. *)
