(** A synchronous, round-based message-passing network simulator.

    This is the machine model the thesis assumes for its network-level
    algorithm: processors are graph nodes; in each communication step a
    node may send one message to {e each} of its neighbors (multi-port
    communication) and receives everything sent to it in the previous
    step; faulty processors are total failures — they neither compute
    nor route (their in- and out-edges are dead).

    The simulator charges one round per communication step, so a
    protocol's [rounds] statistic is directly comparable with the
    thesis's step bounds (Θ(n) for the FFC algorithm under f ≤ d−2
    faults, O(K + n) in general).

    Execution model:
    - Round 0: every live node runs [step] with an empty inbox (it may
      send its first messages).
    - Round r ≥ 1: messages sent in round r−1 are delivered; each live
      node with a nonempty inbox — plus any node that [wants_step] —
      runs [step].  Nodes that neither hold mail nor want to step are
      not visited at all (the engine keeps an active-node worklist, so
      a round costs O(active + messages), not O(network)).
    - The run ends when no messages are in flight and no node wants to
      step, or when [max_rounds] is hit.

    Round accounting (pinned by the unit tests):
    - [rounds] is the {e number of rounds executed}, i.e. the number of
      times the engine ran a step sweep.  A run whose last activity is
      in round index r reports [rounds = r + 1] (round indices are
      0-based).  A run over an all-faulty or empty network reports 0.
    - [max_rounds] is a hard budget on executed rounds: the run
      executes at most [max_rounds] rounds (indices
      [0 .. max_rounds − 1]) and raises {!Did_not_converge} the moment
      a [max_rounds + 1]-th round would start. *)

type 'm outgoing = int * 'm
(** (destination, payload).  The destination must be an out-neighbor of
    the sender in the topology, else the send is rejected. *)

type ('s, 'm) protocol = {
  initial : int -> 's;  (** initial state per node id *)
  step : round:int -> int -> 's -> (int * 'm) list -> 's * 'm outgoing list;
      (** [step ~round v state inbox] — inbox is [(source, payload)]
          sorted by source id; several messages from the same source
          arrive in their send order.  Payloads are never compared or
          hashed by the engine, so they may contain closures.  Returns
          the new state and sends. *)
  wants_step : 's -> bool;
      (** Request a step next round even with an empty inbox — used for
          spontaneous phase transitions (e.g. a timeout after n rounds). *)
}

type round_metrics = {
  active : int;  (** nodes stepped in this round *)
  delivered_in_round : int;  (** messages delivered in this round *)
  sent : int;  (** messages sent in this round (incl. drops to faulty nodes) *)
  payload_words : int;
      (** payload words accepted for delivery this round, as sized by
          the [?payload_words] argument of {!run}; 0 when the caller
          did not supply a sizing function *)
  wall_ns : float;  (** wall-clock nanoseconds spent executing the round *)
}

type 's result = {
  rounds : int;  (** number of rounds executed (see round accounting above) *)
  states : 's array;  (** final state of every node (faulty included, at their initial state) *)
  delivered : int;  (** total messages delivered over the run *)
  max_inflight : int;  (** peak messages delivered in a single round *)
  max_port_load : int;
      (** peak messages sent by one node in one round — 1 under
          single-port communication; the thesis's "factor of d" remark
          (§2.4) corresponds to a multi-port protocol with load d being
          serialized over d single-port rounds *)
  payload_total : int;
      (** sum of [payload_words] over the trace — the wire traffic of
          the run in words, the figure the collective benchmarks turn
          into bytes/step *)
  trace : round_metrics array;
      (** per-round metrics, [trace.(r)] for round index r;
          [Array.length trace = rounds] *)
}

exception Illegal_send of { round : int; src : int; dst : int }
(** Raised when a node tries to send to a non-neighbor. *)

exception Did_not_converge of int
(** Raised when the [max_rounds] budget is exhausted; carries the
    limit. *)

val run :
  ?max_rounds:int ->
  ?domains:int ->
  ?payload_words:('m -> int) ->
  topology:Graphlib.Digraph.t ->
  faulty:(int -> bool) ->
  ('s, 'm) protocol ->
  's result
(** Execute the protocol on all non-faulty nodes of the topology.
    [max_rounds] defaults to [4 * n_nodes + 64].  Messages sent to or
    from faulty nodes are silently dropped — receivers cannot tell a
    dead neighbor from a silent one, exactly as in the thesis's fault
    model.

    [faulty] is called once per node when the run starts and once per
    send that passes the edge check (on the destination), always from
    the coordinating domain.  The O(active + messages) round cost
    assumes it is O(1) — a [List.mem] over f faults makes every send
    O(f); precompute a mask instead (as [Ffc.Bstar.fault_probe] does).

    [domains] (default 1) enables parallel stepping on OCaml 5
    domains: rounds with at least ~1000 active nodes are split across
    [domains] domains, stepped concurrently, and their sends merged
    deterministically in node order — the result is bit-identical to
    the sequential mode.  Requires [step] to be safe to run
    concurrently for {e distinct} nodes (pure, or mutating only the
    stepped node's own state), which holds for every protocol in this
    repository.  Rounds below the threshold run sequentially, so small
    protocols pay no spawn overhead.

    [payload_words] sizes a message's payload in words for the traffic
    accounting ([round_metrics.payload_words] / [payload_total]); it is
    called once per message accepted for delivery, from the
    coordinating domain.  Defaults to [fun _ -> 0]. *)
