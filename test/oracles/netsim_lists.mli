(** Seed-style list protocols on the flat-mailbox engine.

    {!run} adapts a {!Netsim_reference.protocol} — state per node kept
    by the engine, inbox and sends as lists — to {!Netsim.Simulator.run}:
    it holds the states, hands each step its inbox as a list and feeds
    the returned sends to the [send] callback in list order.  The
    tests use it to run the very protocol value the seed engine runs,
    so the two engines can be compared round for round. *)

val run :
  ?max_rounds:int ->
  ?payload_words:('m -> int) ->
  topology:Netsim.Simulator.topology ->
  faulty:(int -> bool) ->
  ('s, 'm) Netsim_reference.protocol ->
  's array * Netsim.Simulator.result
(** Every node's final state (faulty ones at their initial state) and
    the engine's result. *)
