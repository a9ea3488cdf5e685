(** Fault-tolerant ring embedding in De Bruijn networks — public façade.

    This module gathers the whole reproduction of Rowley & Bose behind
    one door.  The sub-libraries remain directly usable
    ({!Debruijn.Word}, {!Ffc.Embed}, {!Dhc.Strategies}, …); [Core]
    re-exports them and offers one-call drivers for the common tasks:

    {ul
    {- {!fault_free_ring}: Chapter 2 — the longest ring avoiding faulty
       {e processors} (length ≥ dⁿ − nf for f ≤ d−2);}
    {- {!fault_free_ring_distributed}: the same ring computed by the
       network-level protocol, with its round statistics;}
    {- {!hamiltonian_ring_avoiding_edge_faults}: Chapter 3 — a
       Hamiltonian ring avoiding faulty {e links}
       (f ≤ MAX(ψ(d)−1, φ(d)));}
    {- {!disjoint_rings}: ψ(d) edge-disjoint Hamiltonian rings;}
    {- {!butterfly_ring_avoiding_edge_faults}: §3.4 — the butterfly
       extension;}
    {- {!de_bruijn_sequence}: a dⁿ-ary De Bruijn sequence;}
    {- {!collective_over_fault_free_ring} and
       {!striped_collective_over_disjoint_rings}: ring collectives over
       the Chapter-2 and Chapter-3 rings, run by the compiled
       {!Collective.Fastpath} executor;}
    {- necklace counting re-exports (Chapter 4).}} *)

module Word = Debruijn.Word
module Necklace = Debruijn.Necklace
module Graph = Debruijn.Graph
module Sequence = Debruijn.Sequence
module Digraph = Graphlib.Digraph
module Simulator = Netsim.Simulator
module Cycle = Graphlib.Cycle
module Bstar = Ffc.Bstar
module Embed = Ffc.Embed
module Ffc_workspace = Ffc.Workspace
module Ffc_campaign = Ffc.Campaign
module Ffc_live = Ffc.Live
module Pipeline_error = Ffc.Pipeline_error
module Distributed = Ffc.Distributed
module Routing = Ffc.Routing
module Shift_cycles = Dhc.Shift_cycles
module Strategies = Dhc.Strategies
module Edge_fault = Dhc.Edge_fault
module Psi = Dhc.Psi
module Mdb = Dhc.Mdb
module Stream = Dhc.Stream
module Campaign = Dhc.Campaign
module Butterfly_graph = Butterfly.Graph
module Butterfly_embed = Butterfly.Embed
module Count = Necklace_count.Count
module Hypercube_ring = Hypercube.Ring
module Rng = Util.Rng
module Compose = Dhc.Compose
module Collective_schedule = Collective.Schedule
module Collective_exec = Collective.Exec

val fault_free_ring :
  d:int -> n:int -> faults:int list -> int array option
(** The FFC algorithm (Chapter 2): a ring over every node of the largest
    component left after deleting the faulty necklaces.  Nodes are codes
    in [0, dⁿ); see {!Word} for digit conversions.  [None] when no node
    survives. *)

val fault_free_ring_distributed :
  d:int -> n:int -> faults:int list -> (int array * Ffc.Distributed.stats) option
(** The same ring, computed by message passing on the synchronous
    network simulator; the stats report rounds and per-round metrics
    per protocol phase. *)

val ring_length_guarantee : d:int -> n:int -> f:int -> int
(** dⁿ − n·f — the Proposition 2.2 floor (valid for f ≤ d−2). *)

val hamiltonian_ring_avoiding_edge_faults :
  d:int -> n:int -> faults:(int * int) list -> int array option
(** Proposition 3.3/3.4: a Hamiltonian ring (as a node cycle) avoiding
    the given faulty links, guaranteed for
    |faults| ≤ MAX(ψ(d)−1, φ(d)), n ≥ 2. *)

val edge_fault_tolerance : int -> int
(** MAX(ψ(d)−1, φ(d)). *)

val disjoint_rings : d:int -> n:int -> int array list
(** ψ(d) pairwise edge-disjoint Hamiltonian rings of B(d,n) as node
    cycles (n ≥ 2). *)

val butterfly_ring_avoiding_edge_faults :
  d:int -> n:int -> faults:(int * int) list -> int array option
(** Proposition 3.5, for gcd(d,n) = 1: a Hamiltonian ring of the
    butterfly F(d,n) avoiding the given faulty butterfly links. *)

val de_bruijn_sequence : d:int -> n:int -> int array
(** A De Bruijn sequence of order n over d letters (as digits), obtained
    from the FFC algorithm with no faults — i.e. by necklace joining, in
    the style of [FM78, Ra181]. *)

val route : d:int -> n:int -> faults:int list -> int -> int -> int list option
(** A fault-free path of length ≤ 2n between two live processors,
    avoiding every faulty necklace — the constructive routing of
    Proposition 2.2's proof.  Guaranteed when |faults| ≤ d−2. *)

val necklace_count : d:int -> n:int -> int
(** Chapter 4: total number of necklaces. *)

val necklace_count_of_length : d:int -> n:int -> t:int -> int

val collective_over_fault_free_ring :
  ?bidirectional:bool ->
  ?clamp_ranks:bool ->
  d:int ->
  n:int ->
  faults:int list ->
  op:Collective.Schedule.op ->
  ranks:int ->
  chunk_words:int ->
  unit ->
  Collective.Exec.report option
(** One-call driver for the Chapter-2 setting: embed the FFC ring
    avoiding the faulty processors, then run the given collective over
    it through {!Collective.Fastpath.run}, exact-verifying the reduced
    values.  The report equals what the test suite's netsim reference
    executor returns on the same ring.  [None] when no ring
    survives the fault set.
    @raise Invalid_argument as {!Collective.Fastpath.run} does, e.g.
    when [ranks] exceeds the ring length without [clamp_ranks]. *)

val striped_collective_over_disjoint_rings :
  ?bidirectional:bool ->
  ?clamp_ranks:bool ->
  ?edge_faults:(int * int) list ->
  d:int ->
  n:int ->
  k:int ->
  op:Collective.Schedule.op ->
  ranks:int ->
  chunk_words:int ->
  unit ->
  Collective.Exec.report option
(** One-call driver for the Chapter-3 setting: take [k] of the ψ(d)
    pairwise edge-disjoint Hamiltonian rings (the survivors of
    [edge_faults], when given) and stripe one collective across all of
    them in a single {!Collective.Fastpath.run} — k× the application
    bytes per step of the single-ring schedule.  The report equals what
    the netsim reference executor returns on the same rings.  [None] when no ring
    survives.
    @raise Invalid_argument if [edge_faults] is empty and k is outside
    [1, ψ(d)], or as {!Collective.Fastpath.run} does. *)
