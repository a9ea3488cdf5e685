(** Execute ring-collective schedules over {!Netsim.Simulator} on
    embedded rings of B(d,n) — the reference executor.

    Every relay hop is a simulator message, which makes this the
    executable proof that the network can realize the schedule, and
    the oracle {!Collective.Fastpath} is pinned against (reports and
    final arenas).  Only the tests and the collective bench call
    {!run}; [Core]'s drivers and the CLI run {!Collective.Fastpath},
    which shares {!Collective.Exec}'s types and checks the closed form
    {!verify_arena} states.

    The caller supplies the rings as node cycles — the FFC-embedded
    ring under node faults (Chapter 2, {!Ffc.Embed}), or up to ψ(d)
    pairwise edge-disjoint Hamiltonian cycles under link faults
    (Chapter 3, {!Dhc.Compose.disjoint_streams_upto}).  Each ring
    carries an independent stripe of the payload, so k edge-disjoint
    rings move k× the application bytes in the same number of
    simulator rounds — the multi-ring striped allreduce.

    Mapping onto the network: {!Collective.Schedule.boundaries} places
    [ranks] logical participants at evenly spaced ring positions; the
    ring nodes between two consecutive ranks are {e relays} that
    forward payload hop by hop along ring edges (shared-relay traffic
    in the style of Albader et al.).  Ranks are self-timed: a rank's
    phase-s send is triggered by its phase-(s−1) receive, so the whole
    run pipelines — chunks stream through every segment concurrently
    and a full allreduce costs ≈ 2·L rounds on an L-node ring,
    independent of the rank count.

    Payload words live in one off-heap {!Graphlib.Flatarr} buffer
    carved into per-(ring, rank) slices; a step writes only the
    stepped node's own slice.  The topology is implicit: the O(1)
    De Bruijn edge test {!Debruijn.Word.is_edge}, reversed too under
    [bidirectional], minus the faulted links ({!topology}).

    Verification is exact: every word of the final arena is compared
    against the closed-form result of the ring schedule
    ({!verify_arena}) — integer sums of the [init] payloads, no
    floating point, no tolerance. *)

(** Constant-time membership for directed-edge fault sets, keyed by the
    packed integer u·dⁿ + v — the same hashed/packed-key trick as
    {!Dhc.Edge_fault.Faults}, but accepting arbitrary node pairs (a
    fault that is not a real De Bruijn edge simply never matches).
    {!topology} runs it on every message the simulator sends. *)
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

val run :
  ?edge_faults:(int * int) list ->
  ?clamp_ranks:bool ->
  ?init:(ring:int -> rank:int -> chunk:int -> word:int -> int) ->
  p:Debruijn.Word.params ->
  faulty:(int -> bool) ->
  rings:int array list ->
  Collective.Exec.spec ->
  Collective.Exec.report
(** Drive one collective over every given ring simultaneously in a
    single simulator run.

    Requirements (checked by {!Collective.Compile.lower}): at least
    one ring; all rings the same length L ≥ 2 (they stripe one
    payload, so they must agree on rank geometry); no ring visits a
    node twice or touches a node satisfying [faulty]; consecutive ring
    nodes must be De Bruijn-adjacent (raises
    {!Netsim.Simulator.Illegal_send} with the round the simulator
    would first attempt the send).  [spec.ranks > L] raises
    [Invalid_argument] unless [clamp_ranks] is set, in which case the
    count is clamped to L (the report's [ranks] field carries the
    effective value); the resolved count must be ≥ 2;
    [chunk_words ≥ 1].

    [edge_faults] removes the given directed De Bruijn edges from the
    topology (both directions under [bidirectional]; the simulator
    tests each message against a {!Fault_probe}) — a ring crossing a
    dead link makes the run raise {!Netsim.Simulator.Illegal_send}, so
    a clean return {e proves} the rings avoid the fault set.

    [init] gives the integer payload (defaults to
    {!Collective.Exec.default_init}).  It must be pure: the run calls
    it once per initial payload word to fill the
    rings·ranks²·chunk_words-word arena (all-gather: once per owned
    word, the rest start at zero), then again for the closed form of
    {!verify_arena}, and both must see the same values. *)

val run_with_payload :
  ?edge_faults:(int * int) list ->
  ?clamp_ranks:bool ->
  ?init:(ring:int -> rank:int -> chunk:int -> word:int -> int) ->
  p:Debruijn.Word.params ->
  faulty:(int -> bool) ->
  rings:int array list ->
  Collective.Exec.spec ->
  Collective.Exec.report * int array
(** [run] plus a heap snapshot of the final payload arena (ring-major,
    then rank-major, then chunk-major slices of [chunk_words] words) —
    the word-for-word comparison target of the Fastpath agreement
    qcheck. *)

val topology :
  p:Debruijn.Word.params ->
  bidirectional:bool ->
  Fault_probe.t ->
  Netsim.Simulator.topology
(** The links a run may use, as the simulator's O(1) edge test: the
    De Bruijn edges u → v ({!Debruijn.Word.is_edge}), plus their
    reversals under [bidirectional], minus every pair the probe holds —
    the edge set of [Digraph.remove_edges] over the (symmetric closure
    of) [Debruijn.Graph.b p], without building either. *)

val verify_arena :
  Collective.Schedule.op ->
  init:(ring:int -> rank:int -> chunk:int -> word:int -> int) ->
  rings:int ->
  ranks:int ->
  chunk_words:int ->
  Graphlib.Flatarr.t ->
  bool * int
(** [verify_arena op ~init ~rings ~ranks ~chunk_words buf] checks a
    final payload arena (the layout {!run_with_payload} returns:
    [rings·ranks²·chunk_words] words) against the closed-form result
    of the ring schedule, for ring j, chunk c and word w:
    - allreduce: every rank holds Σ_r init(j, r, c, w);
    - all-gather: every rank holds init(j, c, c, w);
    - reduce-scatter: rank (c + k) mod R holds the prefix sum
      Σ_{i=0..k} init(j, (c + i) mod R, c, w), k = 0 … R−1 (k = R−1
      is {!Collective.Schedule.owned_chunk}).

    Returns [(verified, checksum)]: whether every word matches, and
    the sum of all arena words.  One pass over the arena with one
    [chunk_words]-word accumulator; [init] is called at most
    ranks²·chunk_words times per ring.  {!run} calls it;
    {!Collective.Fastpath} reaches the same verdict and sum from the
    values of its own fill, and the test suite pins the two together.
    @raise Invalid_argument if [buf] has the wrong length. *)
