(** Compiled zero-copy executor for ring collectives — the fastpath,
    and the one executor [Core]'s collective drivers (and so the
    [collective] CLI command) call.

    Same inputs, same {!Exec.report} and same payload arena as the
    hop-by-hop execution over {!Netsim.Simulator} (the test suite's
    netsim reference executor), without the network: {!Compile.lower}
    flattens the (rings, rank-boundary) configuration into segment
    tables once, then the schedule runs one (ring, chunk) column at a
    time.  Relay hops are
    pure routing (the shared-relay observation: a relay never
    transforms payload), so in phase p chunk c moves only from rank
    (c+p) mod R to rank (c+p+1) mod R, and a ring's R chunk columns are
    independent chains.  Each column is filled from [init], run through
    its phases in order (reducing in place during the reduce-scatter
    phases), checked and summed in one ranks·chunk_words-word buffer.
    The hops themselves are {e accounted}, never simulated: rounds,
    delivered hops and wire words come from closed-form arithmetic over
    segment lengths and the {!Schedule} phase structure, and per-link
    congestion and port load from one read, in node order, of the
    edge-code table {!Compile.lower} built ({!Compile.max_edge_share},
    {!Compile.max_port_load}) — reproducing {!Netsim.Simulator}'s
    self-timed pipelining figures exactly.

    The equivalence is enforced three ways: an exact word-for-word
    check of every final payload word against its closed form (the
    same relay observation applied to the data: chunk c ends as a sum
    of the ranks' own init words, so no schedule is re-run to know
    it), for ring j, chunk c and word w:
    - allreduce: every rank holds Σ_r init(j, r, c, w);
    - all-gather: every rank holds init(j, c, c, w);
    - reduce-scatter: rank (c + k) mod R holds the prefix sum
      Σ_{i=0..k} init(j, (c + i) mod R, c, w), k = 0 … R−1;

    taken from the values the column fill drew, so the verdict and
    checksum equal the reference executor's arena check on the same
    payload; a qcheck suite pinning report counters and final arenas
    identical to the reference across ops × ranks × chunk_words ×
    bidirectional × fault draws, and the verdict to its arena check on
    the returned snapshot; and the bench harness comparing the two
    engines on every matrix point.  What changes is cost: zero
    allocation per hop, work proportional to
    rings·ranks·phases·chunk_words instead of rings·length·phases
    messages, and no payload arena — B(2,22) (4.2M-node) rings become
    interactive.

    [init] must be pure: it is called exactly once per initial payload
    word — rings·ranks²·chunk_words times, rings·ranks·chunk_words for
    all-gather, whose non-owned chunks start at zero — and the closed
    form is accumulated from those same values. *)

val run :
  ?edge_faults:(int * int) list ->
  ?clamp_ranks:bool ->
  ?init:(ring:int -> rank:int -> chunk:int -> word:int -> int) ->
  p:Debruijn.Word.params ->
  faulty:(int -> bool) ->
  rings:int array list ->
  Exec.spec ->
  Exec.report
(** Drop-in replacement for the netsim reference executor's [run]:
    identical validation (including [Invalid_argument] messages,
    modulo the ["Collective.Fastpath.run"] prefix), identical
    {!Netsim.Simulator.Illegal_send} on a ring crossing a missing or
    faulted edge — raised at compile time, carrying the round at which
    the simulator would first attempt that send — and an identical
    report for identical inputs.

    Payload cost: ranks·chunk_words words of scratch for the column,
    as many again for the reduce-scatter prefixes and chunk_words for
    the running sum, whatever the number of rings — no
    rings·ranks²·chunk_words arena. *)

val run_with_payload :
  ?edge_faults:(int * int) list ->
  ?clamp_ranks:bool ->
  ?init:(ring:int -> rank:int -> chunk:int -> word:int -> int) ->
  p:Debruijn.Word.params ->
  faulty:(int -> bool) ->
  rings:int array list ->
  Exec.spec ->
  Exec.report * int array
(** [run] plus a heap snapshot of the final payload arena, in
    the reference executor's layout (ring-major, then rank-major, then
    chunk-major slices of [chunk_words] words) — what the agreement
    qcheck compares word-for-word against it.  This is the one call that
    allocates rings·ranks²·chunk_words words: each column is copied in
    once it is checked. *)
