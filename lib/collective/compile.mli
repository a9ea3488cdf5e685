(** Lowering ring collectives to flat tables — the front end of
    {!Fastpath} (and of the test suite's netsim reference executor).

    {!lower} validates a (rings, rank-boundary) configuration once and
    compiles it into flat tables: segment hop-lengths and their prefix
    sums ({!Graphlib.Flatarr} storage), and one node-major table of edge
    codes, next to the driven node cycles themselves.  {!Fastpath} runs
    the whole schedule off them without ever materializing the network.

    The closed-form accounting helpers ({!completion_rounds},
    {!max_edge_share}, {!max_port_load}) reproduce the simulator's
    self-timed pipelining figures exactly; the agreement is
    qcheck-pinned against {!Netsim.Simulator} runs in the test suite. *)

type cells
(** The cells of the code table: one byte each while d ≤ 127, one word
    beyond. *)

type t = {
  p : Debruijn.Word.params;
  nrings : int;  (** driven rings, reversed directions appended *)
  length : int;  (** ring length L *)
  ranks : int;  (** logical ranks R, after any clamp *)
  cycles : int array array;  (** all driven node cycles, row-per-ring *)
  seg_len : Graphlib.Flatarr.t;  (** rank r → hops from rank r to rank r+1 *)
  seg_pref : Graphlib.Flatarr.t;
      (** R+1 prefix sums of [seg_len]; [seg_pref.{r}] = hops before
          rank r (its ring position, {!Schedule.boundaries}),
          [seg_pref.{R}] = L *)
  codes : cells;
      (** node-major edge codes: cell v·nrings + j holds the code of
          node v's out-edge on ring j, or marks that ring j misses v *)
}

val lower :
  what:string ->
  clamp_ranks:bool ->
  edge_faults:(int * int) list ->
  bidirectional:bool ->
  ranks:int ->
  chunk_words:int ->
  p:Debruijn.Word.params ->
  faulty:(int -> bool) ->
  rings:int array list ->
  t
(** Validate and compile.  Checks (the [Invalid_argument] messages
    carry the [what] prefix): at least one ring, all of equal length
    ≥ 2, [chunk_words ≥ 1], every ring node in range, non-faulty and
    visited at most once per ring, and the rank count: [ranks > L]
    raises unless [clamp_ranks] is set, in which case the count is
    clamped to L (the clamp reaches callers through the report's
    [ranks] field), and a resolved count below 2 always raises.

    One pass per ring fills the code table; writing u's cell is the
    revisit check.  A forward edge u → v has x = v − (u mod dⁿ⁻¹)·d in
    [0, d): that one value is both the adjacency test and the code (v's
    last digit).  Under [bidirectional], an edge valid only as the
    reversal of v → u takes code d + (v's first digit); forward takes
    precedence.  Codes are injective on a node's out-edges, so equal
    codes in a row mean a shared directed link.

    An edge that is neither, or that [edge_faults] kills (both
    directions under [bidirectional]; each fault is looked up in the
    table after the pass), raises {!Netsim.Simulator.Illegal_send}
    carrying the round at which the simulator would first attempt that
    send — the phase-0 chunk wave reaches offset h of every segment at
    round h, so the earliest offending (round, src) is exact; with
    several bad edges at the same (round, src) the lowest-indexed ring
    wins.  O(nrings·L) time, nrings·dⁿ cells. *)

val completion_rounds : t -> phases:int -> int
(** Rounds to quiescence of the self-timed execution, in closed form.

    Rank r's phase-p receive lands at round A_r(p) = Σ_{i=0}^{p}
    len[(r−1−i) mod R]: its predecessor's phase-p send leaves at round
    A_{r−1}(p−1) (phase-0 at round 0) and takes one round per hop of
    the segment.  The run's last activity is the latest final receive,
    and the simulator counts executed rounds, so the total is
    max_r A_r(phases−1) + 1 — evaluated per rank via the [seg_pref]
    prefix sums extended periodically (any R consecutive segments sum
    to L). *)

val max_edge_share : t -> int
(** The deepest ring-sharing of any directed link (1 for a single ring
    or any edge-disjoint family): the largest count of equal codes in
    any row of the code table, rows read in node order.  Exact for
    every family {!lower} accepts, with no bound on the number of
    rings; each row is compared pairwise, O(dⁿ·nrings²) in all.  O(1)
    when [nrings = 1], since a cycle of distinct nodes never repeats a
    directed edge. *)

val max_port_load : t -> phases:int -> int
(** Peak sends by one node in one round of the self-timed run, in
    closed form: 1 for a single ring.  A membership at offset h of
    segment s sends its phase-p message at round
    h + Σ_{q<p} len[(s−1−q) mod R].  With uniform segments two
    memberships collide iff their offsets are equal, so a sweep over
    the offsets counts repeats among the k·R nodes at each one in a
    table of at most 2·k·R slots, with no node-sized table, and stops
    once a depth reaches k.  Otherwise a node-major position table
    gives each membership s and h, and each row runs a k-way merge of
    its send rounds; rows with no more memberships than the best so
    far are skipped. *)
