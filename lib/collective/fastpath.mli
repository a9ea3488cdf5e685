(** Compiled zero-copy executor for ring collectives — the fastpath,
    and the one executor [Core]'s collective drivers (and so the
    [collective] CLI command) call.

    Same inputs, same {!Exec.report}, same payload arena as {!Exec.run},
    without the network: {!Compile.lower} flattens the (rings,
    rank-boundary) configuration into segment tables once, then the
    schedule runs as an array kernel directly on the payload arena —
    phase p moves chunk (r−p−1) mod R from each rank's predecessor
    slice into its own, reducing in place during the reduce-scatter
    phases.  Relay hops are pure routing (the shared-relay observation:
    a relay never transforms payload), so they are {e accounted}, never
    simulated: rounds, delivered hops and wire words come from
    closed-form arithmetic over segment lengths and the {!Schedule}
    phase structure, and per-link congestion and port load from one
    read, in node order, of the edge-code table {!Compile.lower} built
    ({!Compile.max_edge_share}, {!Compile.max_port_load}) —
    reproducing {!Netsim.Simulator}'s self-timed pipelining figures
    exactly.

    The equivalence is enforced three ways: the same word-for-word
    check Exec runs ({!Exec.verify_arena}, which compares every arena
    word against the closed-form final payload — the same relay
    observation applied to the data: chunk c ends as a sum of the
    ranks' own init words, so no schedule is re-run to know it), a
    qcheck suite pinning report counters and final arenas identical to
    Exec across ops × ranks × chunk_words × bidirectional × fault
    draws, and the bench harness comparing the two engines on every
    matrix point.  What changes is cost: zero allocation per hop, and
    work proportional to ranks·phases·chunk_words instead of
    rings·length·phases messages — B(2,22) (4.2M-node) rings become
    interactive.

    The kernel is one sequential pass per phase over the (ring, rank)
    work items.  Lowering, the arena fill and the accounting are
    sequential too. *)

val run :
  ?edge_faults:(int * int) list ->
  ?clamp_ranks:bool ->
  ?init:(ring:int -> rank:int -> chunk:int -> word:int -> int) ->
  p:Debruijn.Word.params ->
  faulty:(int -> bool) ->
  rings:int array list ->
  Exec.spec ->
  Exec.report
(** Drop-in replacement for {!Exec.run}: identical validation
    (including [Invalid_argument] messages, modulo the
    ["Collective.Fastpath.run"] prefix), identical
    {!Netsim.Simulator.Illegal_send} on a ring crossing a missing or
    faulted edge — raised at compile time, carrying the round at which
    the simulator would first attempt that send — and an identical
    report for identical inputs. *)

val run_with_payload :
  ?edge_faults:(int * int) list ->
  ?clamp_ranks:bool ->
  ?init:(ring:int -> rank:int -> chunk:int -> word:int -> int) ->
  p:Debruijn.Word.params ->
  faulty:(int -> bool) ->
  rings:int array list ->
  Exec.spec ->
  Exec.report * int array
(** [run] plus a heap snapshot of the final payload arena — what the
    agreement qcheck compares word-for-word against
    {!Exec.run_with_payload}. *)
