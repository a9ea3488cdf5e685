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
      runs [step], in ascending node order.  Nodes that neither hold
      mail nor want to step are not visited at all (the engine keeps an
      active-node worklist, so a round costs O(active + messages), not
      O(network)).
    - The run ends when no messages are in flight and no node wants to
      step, or when [max_rounds] is hit.

    The interface allocates nothing per message.  A step reads its
    inbox as a slice of the round's flat mailbox, sends through the
    [send] callback into one flat send buffer (counting-sorted by
    destination at the round switch), and keeps whatever node state
    it needs itself, mutated in place.  The topology is a node count
    plus an O(1) edge test, so B(d,n) need never be materialized.

    Round accounting (pinned by the unit tests):
    - [rounds] is the {e number of rounds executed}, i.e. the number of
      times the engine ran a step sweep.  A run whose last activity is
      in round index r reports [rounds = r + 1] (round indices are
      0-based).  A run over an all-faulty or empty network reports 0.
    - [max_rounds] is a hard budget on executed rounds: the run
      executes at most [max_rounds] rounds (indices
      [0 .. max_rounds − 1]) and raises {!Did_not_converge} the moment
      a [max_rounds + 1]-th round would start. *)

type topology = {
  nodes : int;  (** node ids are [0, nodes) *)
  mem_edge : int -> int -> bool;
      (** [mem_edge u v]: is u → v a link?  Called once per send, only
          with ids inside [0, nodes); O(1) keeps a round at
          O(active + messages), as in {!de_bruijn} *)
}

val de_bruijn : Debruijn.Word.params -> topology
(** B(d,n): dⁿ nodes and the arithmetic edge test
    {!Debruijn.Word.is_edge}; nothing is materialized. *)

(** A node's inbox for one step: the messages sent to it in the
    previous round, sorted by source id, several messages from the
    same source in their send order.  A read-only view of the engine's
    mailbox, valid only during the step that received it.  Payloads
    are never compared or hashed, so they may contain closures. *)
module Inbox : sig
  type 'm t

  val length : 'm t -> int

  val src : 'm t -> int -> int
  (** [src ib i] for 0 ≤ i < [length ib].
      @raise Invalid_argument outside that range. *)

  val msg : 'm t -> int -> 'm
  (** [msg ib i], the payload sent by [src ib i]. *)
end

type 'm protocol = {
  step : round:int -> int -> 'm Inbox.t -> send:(int -> 'm -> unit) -> unit;
      (** [step ~round v inbox ~send] — node [v]'s move in [round].
          [send dst msg] queues [msg] for [dst], which must be an
          out-neighbor of [v]; it raises {!Illegal_send} otherwise, and
          is valid only during this step.  Node state belongs to the
          protocol: a step mutates [v]'s own state in place. *)
  wants_step : int -> bool;
      (** [wants_step v], asked right after [v] steps: request a step
          next round even with an empty inbox — used for spontaneous
          phase transitions (e.g. a timeout after n rounds). *)
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

type result = {
  rounds : int;  (** number of rounds executed (see round accounting above) *)
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
(** Raised by [send] when a node sends to a non-neighbor or to an id
    outside [0, nodes). *)

exception Did_not_converge of int
(** Raised when the [max_rounds] budget is exhausted; carries the
    limit. *)

val run :
  ?max_rounds:int ->
  ?payload_words:('m -> int) ->
  topology:topology ->
  faulty:(int -> bool) ->
  'm protocol ->
  result
(** Execute the protocol on all non-faulty nodes of the topology, in
    one sequential round loop.  [max_rounds] defaults to
    [4 * nodes + 64].  Messages sent to faulty nodes are silently
    dropped and faulty nodes never step — receivers cannot tell a dead
    neighbor from a silent one, exactly as in the thesis's fault
    model.  [faulty] is called once per node when the run starts.

    [payload_words] sizes a message's payload in words for the traffic
    accounting ([round_metrics.payload_words] / [payload_total]); it is
    called once per message accepted for delivery.  Defaults to
    [fun _ -> 0]. *)
