(* Tests for the public facade: end-to-end driver behaviour. *)

module W = Core.Word

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_fault_free_ring () =
  let p = W.params ~d:3 ~n:3 in
  let faults = [ W.of_string p "020"; W.of_string p "112" ] in
  match Core.fault_free_ring ~d:3 ~n:3 ~faults with
  | None -> Alcotest.fail "expected a ring"
  | Some ring ->
      check_int "21 nodes" 21 (Array.length ring);
      check_bool "valid in B(3,3)" true (Core.Cycle.is_cycle (Core.Graph.b p) ring);
      check_bool "avoids faults" true
        (Core.Cycle.avoids_nodes ring (fun v -> List.mem v faults))

let test_fault_free_ring_empty () =
  (* every node faulty *)
  Alcotest.(check bool) "none" true
    (Core.fault_free_ring ~d:2 ~n:2 ~faults:[ 0; 1; 3 ] = None)

let test_distributed_agrees () =
  let p = W.params ~d:3 ~n:3 in
  let faults = [ W.of_string p "020" ] in
  let cent = Option.get (Core.fault_free_ring ~d:3 ~n:3 ~faults) in
  let dist, stats = Option.get (Core.fault_free_ring_distributed ~d:3 ~n:3 ~faults) in
  Alcotest.(check (array int)) "same ring" cent dist;
  check_bool "rounds positive" true (stats.Core.Distributed.total_rounds > 0)

let test_length_guarantee () =
  check_int "B(4,6), f=2" 4084 (Core.ring_length_guarantee ~d:4 ~n:6 ~f:2);
  check_int "B(2,10), f=5" 974 (Core.ring_length_guarantee ~d:2 ~n:10 ~f:5)

let test_edge_fault_ring () =
  let p = W.params ~d:5 ~n:2 in
  let faults = [ (W.of_string p "01", W.of_string p "12") ] in
  match Core.hamiltonian_ring_avoiding_edge_faults ~d:5 ~n:2 ~faults with
  | None -> Alcotest.fail "expected HC"
  | Some ring ->
      check_bool "hamiltonian" true (Core.Cycle.is_hamiltonian (Core.Graph.b p) ring);
      check_bool "avoids fault" true
        (Core.Cycle.avoids_edges ring (fun e -> List.mem e faults))

let test_edge_fault_tolerance () =
  check_int "d=9" 7 (Core.edge_fault_tolerance 9);
  check_int "d=28 (psi wins)" 8 (Core.edge_fault_tolerance 28)

let test_disjoint_rings () =
  let rings = Core.disjoint_rings ~d:4 ~n:2 in
  check_int "psi(4) = 3 rings" 3 (List.length rings);
  check_bool "pairwise disjoint" true (Core.Cycle.pairwise_edge_disjoint rings)

let test_butterfly_ring () =
  let bf = Core.Butterfly_graph.create ~d:3 ~n:2 in
  let faults = [ (0, List.hd (Core.Butterfly_graph.successors bf 0)) ] in
  match Core.butterfly_ring_avoiding_edge_faults ~d:3 ~n:2 ~faults with
  | None -> Alcotest.fail "expected butterfly HC"
  | Some ring ->
      check_bool "hamiltonian" true
        (Core.Cycle.is_hamiltonian bf.Core.Butterfly_graph.graph ring);
      check_bool "avoids" true (Core.Cycle.avoids_edges ring (fun e -> List.mem e faults))

let test_de_bruijn_sequence () =
  List.iter
    (fun (d, n) ->
      let p = W.params ~d ~n in
      check_bool
        (Printf.sprintf "d=%d n=%d" d n)
        true
        (Core.Sequence.is_de_bruijn_sequence p (Core.de_bruijn_sequence ~d ~n)))
    [ (2, 3); (2, 8); (3, 4); (4, 3); (5, 2); (6, 2) ]

let test_route () =
  let p = W.params ~d:4 ~n:3 in
  let faults = [ W.of_string p "010"; W.of_string p "231" ] in
  let x = W.of_string p "122" and y = W.of_string p "332" in
  (match Core.route ~d:4 ~n:3 ~faults x y with
  | None -> Alcotest.fail "route must exist under 2 <= d-2 faults"
  | Some path ->
      check_int "starts at x" x (List.hd path);
      check_int "ends at y" y (List.nth path (List.length path - 1));
      check_bool "within 2n hops" true (List.length path <= 7);
      let flags = Core.Necklace.mark_faulty_necklaces p faults in
      check_bool "avoids faulty necklaces" true
        (List.for_all (fun v -> not flags.(v)) path));
  (* faulty endpoint *)
  check_bool "faulty endpoint" true (Core.route ~d:4 ~n:3 ~faults (List.hd faults) y = None)

let test_counts () =
  check_int "total B(2,12)" 352 (Core.necklace_count ~d:2 ~n:12);
  check_int "length 6" 9 (Core.necklace_count_of_length ~d:2 ~n:12 ~t:6)

(* Core's collective drivers run Collective.Fastpath; their reports
   must equal what the netsim reference executor
   Oracles.Collective_reference returns on the same rings, built here
   without the drivers. *)
let check_report what (want : Core.Collective_exec.report)
    (got : Core.Collective_exec.report) =
  let field name sel = check_int (what ^ " " ^ name) (sel want) (sel got) in
  field "rings" (fun (r : Core.Collective_exec.report) -> r.rings);
  field "ranks" (fun r -> r.ranks);
  field "phases" (fun r -> r.phases);
  field "rounds" (fun r -> r.rounds);
  field "delivered" (fun r -> r.delivered);
  field "wire_words" (fun r -> r.wire_words);
  field "payload_words" (fun r -> r.payload_words);
  field "max_link_load" (fun r -> r.max_link_load);
  field "max_port_load" (fun r -> r.max_port_load);
  field "checksum" (fun r -> r.checksum);
  Alcotest.(check (float 0.0))
    (what ^ " bytes_per_step") want.bytes_per_step got.bytes_per_step;
  check_bool (what ^ " reference verified") true want.verified;
  check_bool (what ^ " verified") true got.verified

let test_collective_drivers () =
  let ranks = 8 and chunk_words = 4 in
  (* Each op through the driver against the reference on [rings]. *)
  let check_case label ~p ~faulty ~rings ?(edge_faults = []) ~bidirectional driver =
    List.iter
      (fun op ->
        let want =
          Oracles.Collective_reference.run ~edge_faults ~p ~faulty ~rings
            { Core.Collective_exec.op; ranks; chunk_words; bidirectional }
        in
        check_report
          (label ^ " " ^ Core.Collective_schedule.op_to_string op)
          want
          (Option.get (driver ~op ~ranks ~chunk_words)))
      Core.Collective_schedule.[ Reduce_scatter; All_gather; Allreduce ]
  in
  (* Chapter 2: the FFC ring of B(2,8) under two seeded node faults. *)
  let p = W.params ~d:2 ~n:8 in
  let faults = Core.Rng.sample_distinct (Core.Rng.create 0x5eed) ~k:2 ~bound:p.W.size in
  let flags = Core.Necklace.mark_faulty_necklaces p faults in
  check_case "ffc" ~p
    ~faulty:(fun v -> flags.(v))
    ~rings:[ Option.get (Core.fault_free_ring ~d:2 ~n:8 ~faults) ]
    ~bidirectional:false
    (Core.collective_over_fault_free_ring ~d:2 ~n:8 ~faults ());
  (* Chapter 3: k = 3 striped rings of B(4,3), fault-free, under one
     link fault (the survivors), and bidirectional. *)
  let d = 4 and n = 3 and k = 3 in
  let first = List.hd (Core.Compose.disjoint_streams_upto ~d ~n ~k:1) in
  let cut = (first.Core.Stream.start, first.Core.Stream.succ first.Core.Stream.start) in
  let disjoint = Core.Compose.disjoint_streams_upto ~d ~n ~k in
  let survivors = Core.Edge_fault.surviving_disjoint_streams ~d ~n ~faults:[ cut ] in
  check_int "one link fault kills one ring" (k - 1) (List.length survivors);
  List.iter
    (fun (label, streams, edge_faults, bidirectional) ->
      check_case label ~p:(W.params ~d ~n)
        ~faulty:(fun _ -> false)
        ~rings:(List.map Core.Stream.to_nodes streams)
        ~edge_faults ~bidirectional
        (Core.striped_collective_over_disjoint_rings ~bidirectional ~edge_faults ~d ~n ~k ()))
    [
      ("striped", disjoint, [], false);
      ("striped link fault", survivors, [ cut ], false);
      ("striped bidir", disjoint, [], true);
    ]

let () =
  Alcotest.run "core"
    [
      ( "facade",
        [
          Alcotest.test_case "fault_free_ring" `Quick test_fault_free_ring;
          Alcotest.test_case "empty B*" `Quick test_fault_free_ring_empty;
          Alcotest.test_case "distributed agrees" `Quick test_distributed_agrees;
          Alcotest.test_case "length guarantee" `Quick test_length_guarantee;
          Alcotest.test_case "edge-fault ring" `Quick test_edge_fault_ring;
          Alcotest.test_case "edge-fault tolerance" `Quick test_edge_fault_tolerance;
          Alcotest.test_case "disjoint rings" `Quick test_disjoint_rings;
          Alcotest.test_case "butterfly ring" `Quick test_butterfly_ring;
          Alcotest.test_case "De Bruijn sequences" `Quick test_de_bruijn_sequence;
          Alcotest.test_case "routing" `Quick test_route;
          Alcotest.test_case "necklace counts" `Quick test_counts;
          Alcotest.test_case "collective drivers" `Quick test_collective_drivers;
        ] );
    ]
