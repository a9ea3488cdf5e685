(** The ring-collective request and report — the types {!Fastpath}
    takes and returns, and with them [Core]'s collective drivers and
    the [collective] CLI command.

    A request drives one collective ({!Schedule.op}) over rings
    embedded in B(d,n): the FFC-embedded ring under node faults
    (Chapter 2, [Ffc.Embed]), or up to ψ(d) pairwise edge-disjoint
    Hamiltonian cycles under link faults (Chapter 3).  Each ring
    carries an independent stripe of the payload, so k edge-disjoint
    rings move k× the application bytes in the same number of rounds
    — the multi-ring striped allreduce.  [ranks] logical participants
    sit at the ring positions {!Schedule.boundaries} gives; the ring
    nodes between two consecutive ranks relay the payload hop by hop.

    The report's counters are those of the hop-by-hop execution over
    {!Netsim.Simulator}: the test suite's netsim reference executor
    returns the same report, field for field, on every input. *)

type spec = {
  op : Schedule.op;
  ranks : int;
      (** logical participants per ring; more ranks than ring nodes is
          an error unless the run is passed [~clamp_ranks:true] *)
  chunk_words : int;  (** words per message — the per-link per-round capacity *)
  bidirectional : bool;
      (** also drive every ring in the reverse direction with its own
          stripe (full-duplex links: the topology becomes the
          symmetric closure, and the reversed ring uses only reversed
          edges, so the two directions never share a directed link) *)
}

type report = {
  rings : int;  (** logical rings driven; directions count separately *)
  ranks : int;  (** effective ranks per ring (after any requested clamp) *)
  phases : int;  (** schedule phases per ring ({!Schedule.phases}) *)
  rounds : int;  (** simulator rounds to quiescence *)
  delivered : int;  (** message hops (simulator [delivered]) *)
  wire_words : int;
      (** words that crossed links — simulator payload accounting;
          equals [delivered · chunk_words] *)
  payload_words : int;
      (** application payload transported end-to-end:
          rings · ranks · chunk_words *)
  bytes_per_step : float;
      (** effective goodput, 8·[payload_words] / [rounds] — the figure
          the striped variant multiplies by k *)
  max_link_load : int;
      (** peak messages carried by one directed link over the run,
          from the arithmetic congestion accounting: each ring edge
          carries exactly {!Schedule.segment_messages} messages, so
          the peak is that figure times the deepest ring-sharing of
          any link (1 for edge-disjoint rings) *)
  max_port_load : int;  (** peak sends by one node in one round (simulator) *)
  verified : bool;
      (** every final payload word equals its closed-form value (the
          sums {!Fastpath} states); the test suite pins that closed
          form to {!Schedule.simulate} *)
  checksum : int;  (** sum of all final payload words, for bit-identity pins *)
}

val default_init : ring:int -> rank:int -> chunk:int -> word:int -> int
(** The default integer payload: a fixed arithmetic mix of the
    coordinates, [1 + ((ring·1009 + rank·31 + chunk·7 + word) mod 97)].
    Exposed so other executors and tests can reproduce the exact
    default arena. *)
