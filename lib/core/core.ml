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

let fault_free_ring ~d ~n ~faults =
  let p = Word.params ~d ~n in
  Option.map (fun e -> e.Ffc.Embed.cycle) (Ffc.Embed.embed p ~faults)

let fault_free_ring_distributed ~d ~n ~faults =
  let p = Word.params ~d ~n in
  Option.map
    (fun bstar ->
      let r = Ffc.Distributed.run bstar in
      (r.Ffc.Distributed.cycle, r.Ffc.Distributed.stats))
    (Ffc.Bstar.compute p ~faults)

let ring_length_guarantee ~d ~n ~f =
  Ffc.Embed.length_lower_bound (Word.params ~d ~n) f

let hamiltonian_ring_avoiding_edge_faults ~d ~n ~faults =
  let p = Word.params ~d ~n in
  Option.map
    (Sequence.cycle_of_sequence p)
    (Dhc.Edge_fault.best_hc_avoiding ~d ~n ~faults)

let edge_fault_tolerance = Dhc.Psi.max_tolerance

let disjoint_rings ~d ~n =
  let p = Word.params ~d ~n in
  List.map (Sequence.cycle_of_sequence p) (Dhc.Compose.disjoint_hamiltonian_cycles ~d ~n)

let butterfly_ring_avoiding_edge_faults ~d ~n ~faults =
  let bf = Butterfly.Graph.create ~d ~n in
  Butterfly.Embed.hc_avoiding bf ~faults

let de_bruijn_sequence ~d ~n =
  let p = Word.params ~d ~n in
  match Ffc.Embed.embed p ~faults:[] with
  | Some e -> Sequence.sequence_of_cycle p e.Ffc.Embed.cycle
  | None -> assert false

let route ~d ~n ~faults x y =
  let p = Word.params ~d ~n in
  let flags = Necklace.mark_faulty_necklaces p faults in
  Ffc.Routing.route p ~faulty_necklace:(fun v -> flags.(v)) x y

let necklace_count ~d ~n = Necklace_count.Count.total ~d ~n
let necklace_count_of_length ~d ~n ~t = Necklace_count.Count.of_length ~d ~n ~t

let collective_over_fault_free_ring ?(bidirectional = false) ?clamp_ranks ~d
    ~n ~faults ~op ~ranks ~chunk_words () =
  let p = Word.params ~d ~n in
  Option.map
    (fun e ->
      let flags = Necklace.mark_faulty_necklaces p faults in
      Collective.Fastpath.run ?clamp_ranks ~p
        ~faulty:(fun v -> flags.(v))
        ~rings:[ e.Ffc.Embed.cycle ]
        { Collective.Exec.op; ranks; chunk_words; bidirectional })
    (Ffc.Embed.embed p ~faults)

let striped_collective_over_disjoint_rings ?(bidirectional = false)
    ?clamp_ranks ?(edge_faults = []) ~d ~n ~k ~op ~ranks ~chunk_words () =
  let p = Word.params ~d ~n in
  let streams =
    match edge_faults with
    | [] -> Dhc.Compose.disjoint_streams_upto ~d ~n ~k
    | _ ->
        let rec take k = function
          | [] -> []
          | _ when k = 0 -> []
          | st :: rest -> st :: take (k - 1) rest
        in
        take k
          (Dhc.Edge_fault.surviving_disjoint_streams ~d ~n ~faults:edge_faults)
  in
  match streams with
  | [] -> None
  | _ ->
      let rings = List.map Dhc.Stream.to_nodes streams in
      Some
        (Collective.Fastpath.run ~edge_faults ?clamp_ranks ~p
           ~faulty:(fun _ -> false)
           ~rings
           { Collective.Exec.op; ranks; chunk_words; bidirectional })
