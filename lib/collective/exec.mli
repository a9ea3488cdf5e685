(** Execute ring-collective schedules over {!Netsim.Simulator} on
    embedded rings of B(d,n) — the reference executor.

    Every relay hop is a simulator message, which makes this the
    executable proof that the network can realize the schedule, and
    the oracle {!Fastpath} is pinned against (reports and final
    arenas).  Only the tests and the collective bench call {!run};
    [Core]'s drivers and the CLI run {!Fastpath}, which shares this
    module's types and checks the closed form {!verify_arena} states.

    The caller supplies the rings as node cycles — the FFC-embedded
    ring under node faults (Chapter 2, {!Ffc.Embed}), or up to ψ(d)
    pairwise edge-disjoint Hamiltonian cycles under link faults
    (Chapter 3, {!Dhc.Compose.disjoint_streams_upto}).  Each ring
    carries an independent stripe of the payload, so k edge-disjoint
    rings move k× the application bytes in the same number of
    simulator rounds — the multi-ring striped allreduce.

    Mapping onto the network: {!Schedule.boundaries} places [ranks]
    logical participants at evenly spaced ring positions; the ring
    nodes between two consecutive ranks are {e relays} that forward
    payload hop by hop along ring edges (shared-relay traffic in the
    style of Albader et al.).  Ranks are self-timed: a rank's phase-s
    send is triggered by its phase-(s−1) receive, so the whole run
    pipelines — chunks stream through every segment concurrently and a
    full allreduce costs ≈ 2·L rounds on an L-node ring, independent
    of the rank count.

    Payload words live in one off-heap {!Graphlib.Flatarr} buffer
    carved into per-(ring, rank) slices; a step writes only the
    stepped node's own slice.  The topology is implicit: the O(1)
    De Bruijn edge test {!Debruijn.Word.is_edge}, reversed too under
    [bidirectional], minus the faulted links ({!topology}).

    Verification is exact: every word of the final arena is compared
    against the closed-form result of the ring schedule
    ({!verify_arena}) — integer sums of the [init] payloads, no
    floating point, no tolerance. *)

type spec = {
  op : Schedule.op;
  ranks : int;
      (** logical participants per ring; more ranks than ring nodes is
          an error unless the run is passed [~clamp_ranks:true] *)
  chunk_words : int;  (** words per message — the per-link per-round capacity *)
  bidirectional : bool;
      (** also drive every ring in the reverse direction with its own
          stripe (full-duplex links: the topology becomes the
          symmetric closure, and the reversed ring uses only reversed
          edges, so the two directions never share a directed link) *)
}

type report = {
  rings : int;  (** logical rings driven; directions count separately *)
  ranks : int;  (** effective ranks per ring (after any requested clamp) *)
  phases : int;  (** schedule phases per ring ({!Schedule.phases}) *)
  rounds : int;  (** simulator rounds to quiescence *)
  delivered : int;  (** message hops (simulator [delivered]) *)
  wire_words : int;
      (** words that crossed links — simulator payload accounting;
          equals [delivered · chunk_words] *)
  payload_words : int;
      (** application payload transported end-to-end:
          rings · ranks · chunk_words *)
  bytes_per_step : float;
      (** effective goodput, 8·[payload_words] / [rounds] — the figure
          the striped variant multiplies by k *)
  max_link_load : int;
      (** peak messages carried by one directed link over the run,
          from the arithmetic congestion accounting: each ring edge
          carries exactly {!Schedule.segment_messages} messages, so
          the peak is that figure times the deepest ring-sharing of
          any link (1 for edge-disjoint rings) *)
  max_port_load : int;  (** peak sends by one node in one round (simulator) *)
  verified : bool;
      (** every final payload word equals its closed-form value
          ({!verify_arena}); the test suite pins that closed form to
          {!Schedule.simulate} *)
  checksum : int;  (** sum of all final payload words, for bit-identity pins *)
}

val run :
  ?edge_faults:(int * int) list ->
  ?clamp_ranks:bool ->
  ?init:(ring:int -> rank:int -> chunk:int -> word:int -> int) ->
  p:Debruijn.Word.params ->
  faulty:(int -> bool) ->
  rings:int array list ->
  spec ->
  report
(** Drive one collective over every given ring simultaneously in a
    single simulator run.

    Requirements (checked by {!Compile.lower}): at least one ring; all
    rings the same length L ≥ 2 (they stripe one payload, so they must
    agree on rank geometry); no ring visits a node twice or touches a
    node satisfying [faulty]; consecutive ring nodes must be De
    Bruijn-adjacent (raises {!Netsim.Simulator.Illegal_send} with the
    round the simulator would first attempt the send).  [spec.ranks >
    L] raises [Invalid_argument] unless [clamp_ranks] is set, in which
    case the count is clamped to L (the report's [ranks] field carries
    the effective value); the resolved count must be ≥ 2;
    [chunk_words ≥ 1].

    [edge_faults] removes the given directed De Bruijn edges from the
    topology (both directions under [bidirectional]; the simulator tests
    each message against a {!Compile.Fault_probe}) — a ring crossing a
    dead link makes the run raise {!Netsim.Simulator.Illegal_send}, so a
    clean return {e proves} the rings avoid the fault set.

    [init] gives the integer payload (defaults to {!default_init}).  It
    must be pure: the run calls it once per initial payload word to
    fill the rings·ranks²·chunk_words-word arena (all-gather: once per
    owned word, the rest start at zero), then again for the closed
    form of {!verify_arena}, and both must see the same values. *)

val run_with_payload :
  ?edge_faults:(int * int) list ->
  ?clamp_ranks:bool ->
  ?init:(ring:int -> rank:int -> chunk:int -> word:int -> int) ->
  p:Debruijn.Word.params ->
  faulty:(int -> bool) ->
  rings:int array list ->
  spec ->
  report * int array
(** [run] plus a heap snapshot of the final payload arena (ring-major,
    then rank-major, then chunk-major slices of [chunk_words] words) —
    the word-for-word comparison target of the Fastpath agreement
    qcheck. *)

val topology :
  p:Debruijn.Word.params ->
  bidirectional:bool ->
  Compile.Fault_probe.t ->
  Netsim.Simulator.topology
(** The links a run may use, as the simulator's O(1) edge test: the
    De Bruijn edges u → v ({!Debruijn.Word.is_edge}), plus their
    reversals under [bidirectional], minus every pair the probe holds —
    the edge set of [Digraph.remove_edges] over the (symmetric closure
    of) [Debruijn.Graph.b p], without building either. *)

val default_init : ring:int -> rank:int -> chunk:int -> word:int -> int
(** The default integer payload: a fixed arithmetic mix of the
    coordinates, [1 + ((ring·1009 + rank·31 + chunk·7 + word) mod 97)].
    Exposed so other executors and tests can reproduce the exact
    default arena. *)

val verify_arena :
  Schedule.op ->
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
      is {!Schedule.owned_chunk}).

    Returns [(verified, checksum)]: whether every word matches, and
    the sum of all arena words.  One pass over the arena with one
    [chunk_words]-word accumulator; [init] is called at most
    ranks²·chunk_words times per ring.  {!run} calls it; {!Fastpath}
    reaches the same verdict and sum from the values of its own fill,
    and the test suite pins the two together.
    @raise Invalid_argument if [buf] has the wrong length. *)
