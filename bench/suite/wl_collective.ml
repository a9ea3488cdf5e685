(* ring-collectives: allreduce requests through the compiled executor
   (Collective.Fastpath.run), in two classes interleaved 5:2.

   - ffc: R = 64 ranks, 1024-word chunks, on the FFC ring of B(2,20)
     embedded around 8 seeded node faults — one ring, so the executor
     takes its single-ring shortcuts.
   - striped: R = 64 ranks, 256-word chunks, on the ψ(4) − 1 = 2
     edge-disjoint Hamiltonian rings of B(4,10) that survive one seeded
     link fault — several rings, so the executor sorts packed edge keys
     and merges port loads.

   Rings are built during set-up (embedding, disjoint streams, survivor
   screening, materialization); one request of each class warms up.
   Every request must come back [verified] against the rank-space
   reference, with the same checksum as its class's warm-up request.

   In the traced run, each traced request is followed by separate calls
   to the layers Fastpath.run composes — Compile.lower,
   Compile.max_edge_share and Schedule.simulate per ring — so the
   executor's remaining time (arena set-up, kernel, port load, compare)
   is derived as run − lower − edge_share − rings × simulate. *)

module W = Debruijn.Word
module S = Measure.Samples
module Ex = Collective.Exec
open Workload

type cls = {
  label : string;
  p : W.params;
  faulty : int -> bool;
  edge_faults : (int * int) list;
  rings : int array list;
  spec : Ex.spec;
}

(* Ops are issued in cycles of 7: positions 3 and 6 are striped. *)
let is_striped t =
  let c = t mod 7 in
  c = 3 || c = 6

let request c = Collective.Fastpath.run ~edge_faults:c.edge_faults ~p:c.p ~faulty:c.faulty ~rings:c.rings c.spec

(* The layers [Fastpath.run] composes, called one by one. *)
let probe_layers tr c =
  let sp name f = Trace.span tr (name ^ "_" ^ c.label) f in
  let lowered =
    sp "compile.lower" (fun () ->
        Collective.Compile.lower ~what:"suite" ~clamp_ranks:false ~edge_faults:c.edge_faults
          ~bidirectional:false ~ranks:c.spec.Ex.ranks ~chunk_words:c.spec.Ex.chunk_words
          ~p:c.p ~faulty:c.faulty ~rings:c.rings)
  in
  ignore (sp "compile.edge_share" (fun () -> Collective.Compile.max_edge_share lowered));
  List.iteri
    (fun j _ ->
      ignore
        (sp "schedule.simulate" (fun () ->
             Collective.Schedule.simulate c.spec.Ex.op ~ranks:c.spec.Ex.ranks
               ~chunk_words:c.spec.Ex.chunk_words ~init:(fun ~rank ~chunk ~word ->
                 Ex.default_init ~ring:j ~rank ~chunk ~word))))
    c.rings

let run (cfg : cfg) =
  let tr = cfg.trace in
  let n2, d4, n4, ranks, cw_ffc, cw_striped =
    if cfg.smoke then (10, 4, 4, 16, 64, 16) else (20, 4, 10, 64, 1024, 256)
  in
  let allreduce cw = { Ex.op = Collective.Schedule.Allreduce; ranks; chunk_words = cw; bidirectional = false } in
  let setup () =
    (* ffc class: the FFC ring around 8 seeded node faults. *)
    let p2 = W.params ~d:2 ~n:n2 in
    let faults = Util.Rng.sample_distinct (Util.Rng.split cfg.seed 0) ~k:8 ~bound:p2.W.size in
    let ffc =
      match Trace.span tr "embed.ffc_ring" (fun () -> Ffc.Embed.embed ~root_hint:1 p2 ~faults) with
      | None -> failwith "ring-collectives: no FFC ring"
      | Some e ->
          let flags = e.Ffc.Embed.bstar.Ffc.Bstar.necklace_faulty in
          {
            label = "ffc";
            p = p2;
            faulty = (fun v -> flags.{v} <> 0);
            edge_faults = [];
            rings = [ e.Ffc.Embed.cycle ];
            spec = allreduce cw_ffc;
          }
    in
    (* striped class: the disjoint rings surviving one seeded link
       fault, placed on a uniformly drawn ring and node. *)
    let p4 = W.params ~d:d4 ~n:n4 in
    let psi = Dhc.Psi.psi d4 in
    let rng = Util.Rng.split cfg.seed 1 in
    let all =
      Trace.span tr "compose.streams" (fun () -> Dhc.Compose.disjoint_streams_upto ~d:d4 ~n:n4 ~k:psi)
    in
    let st = List.nth all (Util.Rng.int rng psi) in
    let u = Util.Rng.int rng p4.W.size in
    let edge = (u, st.Dhc.Stream.succ u) in
    let survivors =
      Trace.span tr "edge_fault.survivors" (fun () ->
          Dhc.Edge_fault.surviving_disjoint_streams ~d:d4 ~n:n4 ~faults:[ edge ])
    in
    if List.length survivors <> psi - 1 then failwith "ring-collectives: the link fault must kill one ring";
    let rings = Trace.span tr "stream.to_nodes" (fun () -> List.map Dhc.Stream.to_nodes survivors) in
    let striped =
      { label = "striped"; p = p4; faulty = (fun _ -> false); edge_faults = [ edge ]; rings; spec = allreduce cw_striped }
    in
    (* Warm-up: one request per class; its checksum is the class's
       reference. *)
    let reference = Array.map (fun c -> (request c).Ex.checksum) [| ffc; striped |] in
    ([| ffc; striped |], reference, faults, edge)
  in
  let (classes, reference, faults, (eu, ev)), setup_s, setup_rss = Measure.repeated_setup setup in
  let inputs = Measure.Digest62.create () in
  Measure.Digest62.add_list inputs faults;
  Measure.Digest62.add inputs eu;
  Measure.Digest62.add inputs ev;
  let tally = Measure.Tally.create () in
  let lat = [| S.create (); S.create () |] and lat_tr = [| S.create (); S.create () |] in
  let counts = [| 0; 0 |] in
  let t = ref 0 in
  let started = Measure.now_ns () in
  while continue cfg ~started ~done_:!t ~min_ops:7 do
    let k = if is_striped !t then 1 else 0 in
    let c = classes.(k) in
    let j = counts.(k) in
    counts.(k) <- j + 1;
    let traced = traced_turn cfg ~period:1 j in
    Trace.with_op tr !t;
    Measure.Tally.attempt tally;
    let what () = Printf.sprintf "request %d (%s)" !t c.label in
    (match
       Measure.timed (fun () ->
           if traced then Trace.span tr ("fastpath.run_" ^ c.label) (fun () -> request c) else request c)
     with
    | exception ((Invalid_argument _ | Netsim.Simulator.Illegal_send _) as e) ->
        Measure.Tally.fail tally (what () ^ ": " ^ Printexc.to_string e)
    | r, ns ->
        S.add (if traced then lat_tr.(k) else lat.(k)) ns;
        Measure.Tally.check tally r.Ex.verified (fun () -> what () ^ ": not verified");
        Measure.Tally.check tally (r.Ex.checksum = reference.(k)) (fun () ->
            Printf.sprintf "%s: checksum %d, expected %d" (what ()) r.Ex.checksum reference.(k));
        Measure.Tally.check tally (r.Ex.rings = List.length c.rings) (fun () ->
            Printf.sprintf "%s: drove %d rings of %d" (what ()) r.Ex.rings (List.length c.rings)));
    if traced then probe_layers tr c;
    Measure.settle ();
    incr t
  done;
  let ring_lens = List.concat_map (fun c -> List.map Array.length c.rings) (Array.to_list classes) in
  let ring_len_mean =
    float_of_int (List.fold_left ( + ) 0 ring_lens) /. float_of_int (List.length ring_lens)
  in
  let layers =
    match tr with
    | None -> []
    | Some tr ->
        let per_run label = Trace.count tr ("fastpath.run_" ^ label) in
        let ms name label = Trace.total_ms ~per:(per_run label) tr (name ^ "_" ^ label) in
        let rest (c : cls) =
          ms "fastpath.run" c.label -. ms "compile.lower" c.label -. ms "compile.edge_share" c.label
          -. ms "schedule.simulate" c.label
        in
        let words label =
          Trace.words tr ("fastpath.run_" ^ label) /. float_of_int (max 1 (per_run label))
        in
        let ffc = classes.(0) in
        let r = ffc.spec.Ex.ranks and cw = ffc.spec.Ex.chunk_words in
        (* Computed, not measured: words the allreduce kernel reads and
           writes — per (ring, rank) item, 3·cw per reduce-scatter phase
           (two reads, one write) and 2·cw per all-gather phase. *)
        let kernel_bytes = 8 * cw * List.length ffc.rings * r * ((3 * (r - 1)) + (2 * (r - 1))) in
        let setup_ms name = Trace.total_ms ~per:(Trace.count tr name) tr name in
        [
          metric "fastpath.run_ffc_ms" "ms" (ms "fastpath.run" "ffc");
          metric "fastpath.run_striped_ms" "ms" (ms "fastpath.run" "striped");
          metric "compile.lower_ffc_ms" "ms" (ms "compile.lower" "ffc");
          metric "compile.lower_striped_ms" "ms" (ms "compile.lower" "striped");
          metric "compile.edge_share_striped_ms" "ms" (ms "compile.edge_share" "striped");
          metric "schedule.simulate_ffc_ms" "ms" (ms "schedule.simulate" "ffc");
          metric "schedule.simulate_striped_ms" "ms" (ms "schedule.simulate" "striped");
          metric "fastpath.rest_ffc_ms" "ms" (rest classes.(0));
          metric "fastpath.rest_striped_ms" "ms" (rest classes.(1));
          metric "fastpath.minor_words_ffc" "words" (words "ffc");
          metric "fastpath.minor_words_striped" "words" (words "striped");
          metric "fastpath.kernel_bytes_ffc" "bytes" (float_of_int kernel_bytes);
          metric "compose.streams_ms" "ms" (setup_ms "compose.streams");
          metric "edge_fault.survivors_ms" "ms" (setup_ms "edge_fault.survivors");
          metric "stream.to_nodes_ms" "ms" (setup_ms "stream.to_nodes");
          metric "rss.loop_growth_mb" "MB" (Measure.peak_rss_mb () -. setup_rss);
          metric "trace.overhead_pct" "%" (overhead_pct ~traced:(S.p50_ms lat_tr.(0)) ~untraced:(S.p50_ms lat.(0)));
        ]
  in
  {
    attempted = tally.Measure.Tally.attempted;
    failed = tally.Measure.Tally.failed;
    failures = Measure.Tally.failures tally;
    e2e =
      [
        metric "setup_s" "s" setup_s;
        metric "setup_rss_mb" "MB" setup_rss;
        metric "op_p50_ms" "ms" (S.p50_ms lat.(0));
        metric "alt_p50_ms" "ms" (S.p50_ms lat.(1));
        metric "ring_len_mean" "nodes" ring_len_mean;
      ];
    layers;
    exact =
      [
        ("inputs_digest", Measure.Digest62.hex inputs);
        ("checksum_ffc", string_of_int reference.(0));
        ("checksum_striped", string_of_int reference.(1));
        ("ring_len_mean", Printf.sprintf "%.3f" ring_len_mean);
      ];
    notes =
      [
        Printf.sprintf "ffc: B(2,%d) ring of %d nodes; striped: %d rings of B(%d,%d); R=%d, chunks %d/%d words"
          n2 (List.hd ring_lens) (List.length classes.(1).rings) d4 n4 ranks cw_ffc cw_striped;
        Printf.sprintf "requests: ffc %d untraced + %d traced, striped %d untraced + %d traced"
          (S.length lat.(0)) (S.length lat_tr.(0)) (S.length lat.(1)) (S.length lat_tr.(1));
      ];
  }
