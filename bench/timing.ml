(* Bechamel micro-benchmarks: one Test.make per table / figure family.

   These time the kernels that regenerate each experiment; the printed
   number is the OLS-estimated wall time per run. *)

open Bechamel
open Toolkit

module W = Debruijn.Word

let table_2_1_kernel () =
  (* one Table 2.1 cell: B(2,10), f = 10, component + eccentricity *)
  let p = W.params ~d:2 ~n:10 in
  let rng = Util.Rng.create 1 in
  Staged.stage (fun () ->
      let faults = Util.Rng.sample_distinct rng ~k:10 ~bound:p.W.size in
      ignore (Ffc.Bstar.compute p ~faults))

let table_2_2_kernel () =
  let p = W.params ~d:4 ~n:5 in
  let rng = Util.Rng.create 2 in
  Staged.stage (fun () ->
      let faults = Util.Rng.sample_distinct rng ~k:10 ~bound:p.W.size in
      ignore (Ffc.Bstar.compute p ~faults))

let ffc_embed_kernel () =
  (* the full FFC pipeline on B(4,5) with 5 faults *)
  let p = W.params ~d:4 ~n:5 in
  let rng = Util.Rng.create 3 in
  Staged.stage (fun () ->
      let faults = Util.Rng.sample_distinct rng ~k:5 ~bound:p.W.size in
      ignore (Ffc.Embed.embed p ~faults))

let ffc_distributed_kernel () =
  let p = W.params ~d:3 ~n:4 in
  let rng = Util.Rng.create 4 in
  Staged.stage (fun () ->
      let faults = Util.Rng.sample_distinct rng ~k:2 ~bound:p.W.size in
      match Ffc.Bstar.compute p ~faults with
      | Some b -> ignore (Ffc.Distributed.run b)
      | None -> ())

let table_3_1_kernel () =
  Staged.stage (fun () ->
      for d = 2 to 38 do
        ignore (Dhc.Psi.psi d)
      done)

let table_3_2_kernel () =
  Staged.stage (fun () ->
      for d = 2 to 35 do
        ignore (Dhc.Psi.max_tolerance d)
      done)

let disjoint_hcs_kernel () =
  Staged.stage (fun () -> ignore (Dhc.Compose.disjoint_hamiltonian_cycles ~d:8 ~n:2))

let edge_fault_kernel () =
  let p = W.params ~d:9 ~n:2 in
  let rng = Util.Rng.create 5 in
  Staged.stage (fun () ->
      let u = Util.Rng.int rng p.W.size in
      let v = W.snoc p (W.suffix p u) (Util.Rng.int rng 9) in
      let faults = if u = v then [] else [ (u, v) ] in
      ignore (Dhc.Edge_fault.hc_avoiding ~d:9 ~n:2 ~faults))

let mdb_kernel () = Staged.stage (fun () -> ignore (Dhc.Mdb.build ~d:5 ~n:2))

let butterfly_kernel () =
  let bf = Butterfly.Graph.create ~d:3 ~n:4 in
  Staged.stage (fun () -> ignore (Butterfly.Embed.hamiltonian_cycle bf))

let chapter_4_kernel () =
  Staged.stage (fun () ->
      ignore (Necklace_count.Count.total ~d:2 ~n:12);
      for k = 0 to 12 do
        ignore (Necklace_count.Count.of_weight ~d:2 ~n:12 ~k)
      done)

let hypercube_kernel () =
  let rng = Util.Rng.create 6 in
  Staged.stage (fun () ->
      let faults = Util.Rng.sample_distinct rng ~k:3 ~bound:1024 in
      ignore (Hypercube.Ring.embed ~n:10 ~faults))

let selftimed_kernel () =
  let p = W.params ~d:4 ~n:4 in
  let rng = Util.Rng.create 7 in
  Staged.stage (fun () ->
      let faults = Util.Rng.sample_distinct rng ~k:2 ~bound:p.W.size in
      match Ffc.Bstar.compute p ~faults with
      | Some b -> ignore (Ffc.Selftimed.run b)
      | None -> ())

let routing_kernel () =
  let p = W.params ~d:4 ~n:6 in
  let rng = Util.Rng.create 8 in
  let faults = Util.Rng.sample_distinct rng ~k:2 ~bound:p.W.size in
  let flags = Debruijn.Necklace.mark_faulty_necklaces p faults in
  Staged.stage (fun () ->
      let x = Util.Rng.int rng p.W.size and y = Util.Rng.int rng p.W.size in
      if not (flags.(x) || flags.(y)) then
        ignore (Ffc.Routing.route p ~faulty_necklace:(fun v -> flags.(v)) x y))

let connectivity_kernel () =
  let p = W.params ~d:3 ~n:2 in
  let g = Debruijn.Graph.b p in
  Staged.stage (fun () -> ignore (Graphlib.Connectivity.node_connectivity g))

let hamsearch_kernel () =
  let p = W.params ~d:3 ~n:3 in
  let g = Debruijn.Graph.b p in
  Staged.stage (fun () -> ignore (Hamsearch.Search.hamiltonian ~budget:500_000 g))

let de_bruijn_sequence_kernel () =
  Staged.stage (fun () -> ignore (Core.de_bruijn_sequence ~d:2 ~n:12))

(* Simulator engine comparison: the same protocol round loop on B(4,7)
   (16384 nodes) under the seed full-scan engine (list protocol over a
   materialized Digraph) and the worklist engine (flat-mailbox protocol
   over the implicit topology) — the speedup recorded in EXPERIMENTS.md
   "netsim at scale".  Protocol state is mutable, so each run builds
   its protocol. *)

let b47 = W.params ~d:4 ~n:7
let b47_topology = Netsim.Simulator.de_bruijn b47

let netsim_seed_kernel () =
  let g = Debruijn.Graph.b b47 in
  let sends v = List.map (fun w -> (w, ())) (Graphlib.Digraph.succs g v) in
  let flood =
    Oracles.Netsim_reference.
      {
        initial = (fun v -> v = 0);
        step =
          (fun ~round v informed inbox ->
            if round = 0 then (informed, if v = 0 then sends v else [])
            else if informed || List.is_empty inbox then (informed, [])
            else (true, sends v));
        wants_step = (fun _ -> false);
      }
  in
  Staged.stage (fun () ->
      ignore (Oracles.Netsim_reference.run ~topology:g ~faulty:(fun _ -> false) flood))

let netsim_worklist_kernel () =
  let flood () =
    let informed = Bytes.make b47.W.size '\000' in
    let to_all v send = W.iter_succs b47 v (fun w -> send w ()) in
    Netsim.Simulator.
      {
        step =
          (fun ~round v inbox ~send ->
            if round = 0 then (if v = 0 then to_all v send)
            else if Bytes.get informed v = '\000' && Inbox.length inbox > 0 then begin
              Bytes.set informed v '\001';
              to_all v send
            end);
        wants_step = (fun _ -> false);
      }
  in
  Staged.stage (fun () ->
      ignore
        (Netsim.Simulator.run ~topology:b47_topology ~faulty:(fun _ -> false) (flood ())))

let netsim_token_seed_kernel () =
  let g = Debruijn.Graph.b b47 in
  let next =
    Array.init b47.W.size (fun v ->
        match Graphlib.Digraph.succs g v with w :: _ -> w | [] -> v)
  in
  let token =
    Oracles.Netsim_reference.
      {
        initial = (fun v -> if v = 1 then 256 else -1);
        step =
          (fun ~round:_ v st inbox ->
            let st = List.fold_left (fun _ (_, m) -> m) st inbox in
            if st > 0 then (-1, [ (next.(v), st - 1) ]) else (st, []));
        wants_step = (fun _ -> false);
      }
  in
  Staged.stage (fun () ->
      ignore (Oracles.Netsim_reference.run ~topology:g ~faulty:(fun _ -> false) token))

let netsim_token_worklist_kernel () =
  let token () =
    let hold = Array.make b47.W.size (-1) in
    hold.(1) <- 256;
    Netsim.Simulator.
      {
        step =
          (fun ~round:_ v inbox ~send ->
            let len = Inbox.length inbox in
            let st = if len > 0 then Inbox.msg inbox (len - 1) else hold.(v) in
            if st > 0 then begin
              hold.(v) <- -1;
              send (v mod (b47.W.size / b47.W.d) * b47.W.d) (st - 1)
            end
            else hold.(v) <- st);
        wants_step = (fun _ -> false);
      }
  in
  Staged.stage (fun () ->
      ignore
        (Netsim.Simulator.run ~topology:b47_topology ~faulty:(fun _ -> false) (token ())))

(* Centralized-pipeline comparison: the implicit/flat rewrite against
   the frozen list-based reference on B(2,14) (16384 nodes, one fault)
   — the bechamel-grade version of `scale`'s speedup measurement. *)

let ffc_implicit_b214 () =
  let p = W.params ~d:2 ~n:14 in
  Staged.stage (fun () -> ignore (Ffc.Embed.embed p ~faults:[ 1 ]))

let ffc_implicit_domains_b214 () =
  let p = W.params ~d:2 ~n:14 in
  Staged.stage (fun () -> ignore (Ffc.Embed.embed ~domains:2 p ~faults:[ 1 ]))

let ffc_reference_b214 () =
  let p = W.params ~d:2 ~n:14 in
  Staged.stage (fun () -> ignore (Oracles.Ffc_reference.embed p ~faults:[ 1 ]))

let ffc_bstar_implicit_b214 () =
  let p = W.params ~d:2 ~n:14 in
  Staged.stage (fun () -> ignore (Ffc.Bstar.compute p ~faults:[ 1 ]))

let tests () =
  Test.make_grouped ~name:"repro"
    [
      Test.make ~name:"table2.1/bstar-B(2,10)-f10" (table_2_1_kernel ());
      Test.make ~name:"table2.2/bstar-B(4,5)-f10" (table_2_2_kernel ());
      Test.make ~name:"prop2.2/ffc-embed-B(4,5)-f5" (ffc_embed_kernel ());
      Test.make ~name:"prop2.2/ffc-distributed-B(3,4)" (ffc_distributed_kernel ());
      Test.make ~name:"table3.1/psi-2..38" (table_3_1_kernel ());
      Test.make ~name:"table3.2/max-tolerance-2..35" (table_3_2_kernel ());
      Test.make ~name:"fig3.x/disjoint-hcs-B(8,2)" (disjoint_hcs_kernel ());
      Test.make ~name:"prop3.3/edge-fault-B(9,2)" (edge_fault_kernel ());
      Test.make ~name:"fig3.3/mdb-B(5,2)" (mdb_kernel ());
      Test.make ~name:"prop3.5/butterfly-hc-F(3,4)" (butterfly_kernel ());
      Test.make ~name:"ch4/necklace-counts-B(2,12)" (chapter_4_kernel ());
      Test.make ~name:"comparison/hypercube-ring-Q10-f3" (hypercube_kernel ());
      Test.make ~name:"misc/de-bruijn-sequence-B(2,12)" (de_bruijn_sequence_kernel ());
      Test.make ~name:"prop2.2/selftimed-B(4,4)" (selftimed_kernel ());
      Test.make ~name:"prop2.2/routing-B(4,6)" (routing_kernel ());
      Test.make ~name:"ch1/connectivity-B(3,2)" (connectivity_kernel ());
      Test.make ~name:"ch5/hamsearch-B(3,3)" (hamsearch_kernel ());
      Test.make ~name:"ffc/embed-B(2,14)-implicit" (ffc_implicit_b214 ());
      Test.make ~name:"ffc/embed-B(2,14)-implicit-x2" (ffc_implicit_domains_b214 ());
      Test.make ~name:"ffc/embed-B(2,14)-reference" (ffc_reference_b214 ());
      Test.make ~name:"ffc/bstar-B(2,14)-implicit" (ffc_bstar_implicit_b214 ());
      Test.make ~name:"netsim/flood-B(4,7)-seed" (netsim_seed_kernel ());
      Test.make ~name:"netsim/flood-B(4,7)-worklist" (netsim_worklist_kernel ());
      Test.make ~name:"netsim/token256-B(4,7)-seed" (netsim_token_seed_kernel ());
      Test.make ~name:"netsim/token256-B(4,7)-worklist"
        (netsim_token_worklist_kernel ());
    ]

let run () =
  print_endline (String.make 78 '-');
  print_endline "BECHAMEL TIMINGS - one benchmark per table/figure family (ns per run)";
  print_endline (String.make 78 '-');
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None () in
  let raw = Benchmark.all cfg instances (tests ()) in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let est =
          match Analyze.OLS.estimates ols with
          | Some (e :: _) -> e
          | _ -> nan
        in
        (name, est) :: acc)
      results []
    |> List.sort (fun (n1, t1) (n2, t2) ->
           match String.compare n1 n2 with 0 -> Float.compare t1 t2 | c -> c)
  in
  Printf.printf "%-44s %16s %14s\n" "benchmark" "time/run" "runs/sec";
  List.iter
    (fun (name, ns) ->
      let human =
        if ns < 1e3 then Printf.sprintf "%.1f ns" ns
        else if ns < 1e6 then Printf.sprintf "%.2f us" (ns /. 1e3)
        else if ns < 1e9 then Printf.sprintf "%.2f ms" (ns /. 1e6)
        else Printf.sprintf "%.2f s" (ns /. 1e9)
      in
      Printf.printf "%-44s %16s %14.1f\n" name human (1e9 /. ns))
    rows;
  print_newline ()
