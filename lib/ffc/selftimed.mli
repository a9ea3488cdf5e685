(** The distributed FFC protocol on a fixed round schedule.

    {!Distributed.run} opens each phase once the network has gone quiet,
    which takes an external orchestrator.  A real synchronous machine
    has none: under the f ≤ d−2 regime of Proposition 2.2 the diameter
    of B\u{2217} is at most 2n, so every phase can be given a {e fixed}
    round budget known to all processors in advance.  {!run} executes
    the same node program ({!Distributed.Node}, which defines what every
    node does) in one simulator run, each node opening the phases by its
    local round counter:

    {v
    rounds [0, n]             necklace probe
    rounds [n, 3n+1]          broadcast flood from R
    rounds [3n+2, 4n+2]       choose-Y circulation
    rounds [4n+3, 4n+4]       T_w exchange
    rounds [4n+4, 5n+4]       membership circulation
    v}

    Total: 5n + 4 rounds, independent of the fault pattern — the
    strongest form of the thesis's Θ(n) claim.  The output successor
    map equals {!Embed.successor_map} whenever every live necklace is
    within distance 2n+1 of R (guaranteed for f ≤ d−2; for heavier
    fault patterns use {!Distributed}, which waits as long as needed). *)

type t = {
  bstar : Bstar.t;
  successor : int array;
  cycle : int array;
  total_rounds : int;
      (** executed simulator rounds — always 5n + 5 (the 5n + 4 rounds
          of the schedule plus the round-0 compute step), whatever the
          fault pattern *)
  messages : int;
  trace : Netsim.Simulator.round_metrics array;  (** per-round metrics *)
}

val schedule_length : n:int -> int
(** 5n + 4. *)

val run : Bstar.t -> t
(** Execute the protocol on the fixed schedule, in one simulator run
    over the implicit B(d,n).
    @raise Pipeline_error.Error (stage ["Selftimed"]) if the ring does
    not cover B\u{2217} — the successor map does not close, or closes
    into a ring shorter than [bstar.size] around necklaces the
    broadcast never reached — or if messages are still in flight when
    the run's 5n + 12-round budget is spent.  Possible only beyond the
    f ≤ d−2 guarantee, when 2n+1 rounds do not suffice for the
    broadcast (eccentricity of R above 2n+1), or on an inconsistent
    record (as for {!Distributed.run}). *)
