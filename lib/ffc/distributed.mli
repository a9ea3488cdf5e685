(** The network-level (distributed) implementation of the FFC algorithm
    (§2.4): one node program, run on the synchronous simulator under two
    round schedules — the phased one of {!run}, and the fixed one of
    {!Selftimed.run}.

    The program has five phases.  Each opens with one move at a round
    the schedule picks, after which nodes only react to what they
    receive:
    + {b Probe} — every node circulates its identity around its
      necklace; a node that gets it back within n hops marks its
      necklace fault-free.
    + {b Broadcast} — R floods B\u{2217}; a node's first receipt fixes
      its BFS distance, the minimal sender its T′ parent.
    + {b Choose} — every reached node circulates (distance, node,
      parent) around its necklace, electing its earliest-reached node Y.
    + {b Exchange} — each non-root necklace's exit node αw announces
      (α, its representative, its parent's representative) to all
      successors wγ; receivers keep announcements that concern a T_w
      they belong to.
    + {b Membership} — the kept fragments circulate around each
      necklace, so that every exit node knows the full T_w membership.

    Every node then computes its successor in H locally.  The resulting
    successor map is {e identical} to the centralized
    {!Embed.successor_map} (same tie-breaking rules), which the tests
    assert.

    The phased schedule of {!run} opens each phase at round 0 of its own
    simulator run, and the next phase starts once the network is quiet:
    n rounds for the probe, eccentricity(R) + 1 for the broadcast, ≤ n
    for choose, 1 for the exchange and ≤ n for membership — O(K + n)
    for any fault pattern.

    Both schedules run on B(d,n) as an implicit topology (the
    arithmetic edge test {!Debruijn.Word.is_edge}); nothing
    graph-shaped is built. *)

(** The node program both schedules run. *)
module Node : sig
  type t
  (** Every node's state for one run over a B\u{2217}: flat per-node
      tables over B(d,n), updated in place by {!step}.  A node's
      fragment of the T_w memberships is a sorted array of packed
      (w, rep, digit) ints, merged linearly. *)

  type msg
  (** The messages of all five phases. *)

  type phase = Probe | Broadcast | Choose | Exchange | Membership

  val create : Bstar.t -> t
  (** Every node before the probe: no necklace known live, none reached.
      @raise Invalid_argument if (dⁿ)² overflows an int (packed
      fragment entries). *)

  val step :
    t ->
    phase option ->
    int ->
    msg Netsim.Simulator.Inbox.t ->
    send:(int -> msg -> unit) ->
    unit
  (** [step t opening v inbox ~send] is node [v]'s move in one round:
      it handles every message of [inbox] (sorted by source), then
      makes [opening]'s opening move, if any, sending through [send].
      It writes [v]'s slots only. *)

  val read_out : stage:string -> t -> int array * int array
  (** Every node's H-successor (−1 where no Y was elected) and the ring
      read off from R.
      @raise Pipeline_error.Error (stage [stage]) unless the successor
      map closes into a ring covering the whole B\u{2217}. *)
end

type stats = {
  probe_rounds : int;
  broadcast_rounds : int;
  choose_rounds : int;
  exchange_rounds : int;
  membership_rounds : int;
  total_rounds : int;
  messages : int;  (** total deliveries across all phases *)
  port_load : int;
      (** peak sends by one node in one round across all phases; a
          single-port network would serialize each round into at most
          this many (§2.4's "factor of d" remark) *)
  phase_traces : (string * Netsim.Simulator.round_metrics array) list;
      (** per-phase, per-round metrics (active nodes, deliveries, wall
          time), in phase order — the raw data behind the [*_rounds]
          fields *)
}

(** Each [*_rounds] field counts {e executed} simulator rounds
    (including the phase's round-0 compute step, see
    {!Netsim.Simulator}): the probe phase reports n + 1, a broadcast
    reaching eccentricity K reports at most K + 2, and the Θ(n) /
    O(K + n) shape of the totals is unchanged. *)

type t = {
  bstar : Bstar.t;
  successor : int array;  (** node → H-successor, −1 for non-participants *)
  cycle : int array;  (** H read off from the root *)
  stats : stats;
}

val run : Bstar.t -> t
(** Execute all phases on B(d,n) with the fault set of the given B\u{2217}
    (the B\u{2217} itself is only used for the root choice and for reading
    off the final cycle; every decision inside the phases is made by the
    simulated nodes from received messages).
    @raise Pipeline_error.Error (stage ["Distributed"]) if the successor
    map does not close into a ring covering B\u{2217}.  A record from
    {!Bstar.compute} never triggers this; an inconsistent one can, e.g.
    one whose [faults] names a node of its own membership: the probe
    kills that node's necklace and the rest may close into a shorter
    ring. *)

val live_necklace_flags : Bstar.t -> bool array * int
(** Run only the probe phase; returns per-node "my necklace is fault
    free" flags and the round count — for tests. *)
