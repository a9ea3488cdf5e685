(** The seed full-scan simulator, preserved as an executable
    specification and benchmark baseline.

    This is the pre-worklist implementation of {!Netsim.Simulator.run},
    verbatim, with the seed's list interface: a step takes its inbox as
    a [(src, payload)] list and returns the node's new state plus a
    [(dst, payload)] send list; the engine keeps every node's state.
    Per-round O(n) scans over all nodes, linked-list inboxes sorted
    with polymorphic [compare] over [(src, payload)] pairs, and
    quiescence detection that re-scans the whole network.  It exists
    so that

    - the property tests can check {!Netsim.Simulator.run} (through
      {!Netsim_lists}, which runs these list protocols on it) against
      the original semantics on random protocols, and
    - the [scale] bench section can measure the worklist rewrite
      against the seed hot path.

    Do not use it for new work; its round accounting and inbox ordering
    carry the seed's bugs (see {!Netsim.Simulator} for the fixed semantics):
    [rounds] is the last {e active} round index (one less than the
    executed-round count whenever any node is live), the [max_rounds]
    guard admits [max_rounds + 1] executed rounds, and sorting inboxes
    by [(src, payload)] raises on payloads containing closures. *)

type 'm outgoing = int * 'm

type ('s, 'm) protocol = {
  initial : int -> 's;  (** initial state per node id *)
  step : round:int -> int -> 's -> (int * 'm) list -> 's * 'm outgoing list;
      (** [step ~round v state inbox] — the new state and the sends *)
  wants_step : 's -> bool;
}

type 's result = {
  rounds : int;  (** last round index with activity (seed semantics) *)
  states : 's array;
  delivered : int;
  max_inflight : int;
  max_port_load : int;
}

val run :
  ?max_rounds:int ->
  topology:Graphlib.Digraph.t ->
  faulty:(int -> bool) ->
  ('s, 'm) protocol ->
  's result
(** Seed semantics; raises {!Netsim.Simulator.Illegal_send} and
    {!Netsim.Simulator.Did_not_converge} like the seed did. *)
