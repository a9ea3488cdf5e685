(* distributed-ffc: the paper's network protocol (§2.4) on the
   synchronous simulator, B(2,16).

   A pool of fault sets (f cycling through 2, 8, 32, 128) is generated
   from the seed.  Every fault set is drawn so that each live necklace
   lies within 2n + 1 hops of the root — the regime in which the
   self-timed protocol's fixed round budget is documented to suffice —
   by redrawing from the next seed substream otherwise.  Each trial
   computes a fresh B* for its pool entry and forces its topology
   (both untimed), then times Distributed.run and Selftimed.run on it.
   Both rings must equal the centralized Embed.of_bstar ring.

   Traced trials split Distributed.run into its five phases with the
   per-round wall times the simulator returns ([phase_traces]), and
   Selftimed.run into simulator rounds and the rest. *)

module W = Debruijn.Word
module St = Measure.Strata
module Sim = Netsim.Simulator
open Workload

let fs_full = [ 2; 8; 32; 128 ]
let fs_smoke = [ 1; 2; 4; 8 ]

let wall_ns (trace : Sim.round_metrics array) =
  Array.fold_left (fun acc r -> acc +. r.Sim.wall_ns) 0. trace

let sum_rounds f (trace : Sim.round_metrics array) = Array.fold_left (fun acc r -> acc + f r) 0 trace

(* Per pool entry, the deterministic counts of its first trial. *)
type counts = { len : int; dist_rounds : int; st_rounds : int; dist_msgs : int }

let draw ~seed ~(p : W.params) ~f i =
  (* Substreams i, i + 1000, i + 2000, …: the first draw within reach. *)
  let rec go k =
    let faults = Util.Rng.sample_distinct (Util.Rng.split seed (i + (1000 * k))) ~k:f ~bound:p.W.size in
    match Ffc.Bstar.compute ~root_hint:1 p ~faults with
    | Some b when Ffc.Bstar.eccentricity_of_root b <= (2 * p.W.n) + 1 -> faults
    | _ -> go (k + 1)
  in
  go 0

let run (cfg : cfg) =
  let tr = cfg.trace in
  let n = if cfg.smoke then 8 else 14 in
  let fs = Array.of_list (if cfg.smoke then fs_smoke else fs_full) in
  let pool_size = 2 * Array.length fs in
  let p = W.params ~d:2 ~n in
  let fresh_bstar faults =
    match Ffc.Bstar.compute ~root_hint:1 p ~faults with
    | Some b ->
        ignore (Trace.span tr "bstar.topology" (fun () -> Lazy.force b.Ffc.Bstar.graph));
        b
    | None -> failwith "distributed-ffc: empty B*"
  in
  let setup () =
    let pool = Array.init pool_size (fun i -> draw ~seed:cfg.seed ~p ~f:fs.(i mod Array.length fs) i) in
    (* Warm-up: both protocols once. *)
    let b = fresh_bstar pool.(0) in
    ignore (Ffc.Distributed.run b);
    ignore (Ffc.Selftimed.run b);
    pool
  in
  let pool, setup_s, setup_rss = Measure.repeated_setup setup in
  let inputs = Measure.Digest62.create () in
  Array.iter (Measure.Digest62.add_list inputs) pool;
  let tally = Measure.Tally.create () in
  (* [lat.(0)] Distributed, [lat.(1)] Selftimed, each split by fault count. *)
  let nf = Array.length fs in
  let lat = [| St.create nf; St.create nf |] and lat_tr = [| St.create nf; St.create nf |] in
  let firsts = Array.make pool_size None in
  (* Traced-trial tallies for the netsim layer. *)
  let sim_msgs = ref 0 and sim_ns = ref 0. and active = ref 0 and delivered = ref 0 and sent = ref 0 in
  let port = ref 0 and st_msgs = ref 0 in
  let t = ref 0 in
  let started = Measure.now_ns () in
  while continue cfg ~started ~done_:!t ~min_ops:(2 * pool_size) do
    let idx = !t mod pool_size in
    let traced = traced_turn cfg ~period:pool_size !t in
    Trace.with_op tr !t;
    Measure.Tally.attempt tally;
    let what () = Printf.sprintf "trial %d (pool %d, f=%d)" !t idx (List.length pool.(idx)) in
    (match
       let b = fresh_bstar pool.(idx) in
       let phases (d : Ffc.Distributed.t) =
         List.map
           (fun (name, trace) -> ("distributed." ^ name, int_of_float (wall_ns trace)))
           d.Ffc.Distributed.stats.Ffc.Distributed.phase_traces
       in
       let dist, dns =
         Measure.timed (fun () ->
             if traced then Trace.span tr "distributed.run" ~children:phases (fun () -> Ffc.Distributed.run b)
             else Ffc.Distributed.run b)
       in
       let st, sns =
         Measure.timed (fun () ->
             if traced then
               Trace.span tr "selftimed.run"
                 ~children:(fun (s : Ffc.Selftimed.t) ->
                   [ ("selftimed.sim", int_of_float (wall_ns s.Ffc.Selftimed.trace)) ])
                 (fun () -> Ffc.Selftimed.run b)
             else Ffc.Selftimed.run b)
       in
       let central = Ffc.Embed.of_bstar b in
       (b, dist, dns, st, sns, central)
     with
    | exception Ffc.Pipeline_error.Error err ->
        Measure.Tally.fail tally (Printf.sprintf "%s: %s" (what ()) (Ffc.Pipeline_error.to_string err))
    | _b, dist, dns, st, sns, central ->
        let lat = if traced then lat_tr else lat in
        St.add lat.(0) (idx mod nf) dns;
        St.add lat.(1) (idx mod nf) sns;
        let ring = central.Ffc.Embed.cycle in
        Measure.Tally.check tally
          (Measure.rings_equal dist.Ffc.Distributed.cycle ring)
          (fun () -> what () ^ ": Distributed ring differs from the centralized ring");
        Measure.Tally.check tally
          (Measure.rings_equal st.Ffc.Selftimed.cycle ring)
          (fun () -> what () ^ ": Selftimed ring differs from the centralized ring");
        let ds = dist.Ffc.Distributed.stats in
        let c =
          {
            len = Array.length ring;
            dist_rounds = ds.Ffc.Distributed.total_rounds;
            st_rounds = st.Ffc.Selftimed.total_rounds;
            dist_msgs = ds.Ffc.Distributed.messages;
          }
        in
        (match firsts.(idx) with
        | None -> firsts.(idx) <- Some c
        | Some c0 ->
            Measure.Tally.check tally
              (c0.len = c.len && c0.dist_rounds = c.dist_rounds && c0.st_rounds = c.st_rounds
             && c0.dist_msgs = c.dist_msgs)
              (fun () -> what () ^ ": counts differ from this input's first trial"));
        if traced then begin
          let traces = List.map snd ds.Ffc.Distributed.phase_traces in
          sim_msgs := !sim_msgs + ds.Ffc.Distributed.messages;
          sim_ns := !sim_ns +. List.fold_left (fun acc tr -> acc +. wall_ns tr) 0. traces;
          List.iter
            (fun trace ->
              active := !active + sum_rounds (fun r -> r.Sim.active) trace;
              delivered := !delivered + sum_rounds (fun r -> r.Sim.delivered_in_round) trace;
              sent := !sent + sum_rounds (fun r -> r.Sim.sent) trace)
            traces;
          port := !port + ds.Ffc.Distributed.port_load;
          st_msgs := !st_msgs + st.Ffc.Selftimed.messages
        end);
    Measure.settle ();
    incr t
  done;
  let seen = List.filter_map Fun.id (Array.to_list firsts) in
  let mean f =
    float_of_int (List.fold_left (fun acc c -> acc + f c) 0 seen) /. float_of_int (max 1 (List.length seen))
  in
  let ring_len_mean = mean (fun c -> c.len) in
  let dist_rounds = mean (fun c -> c.dist_rounds) and st_rounds = mean (fun c -> c.st_rounds) in
  let layers =
    match tr with
    | None -> []
    | Some tr ->
        let per = Trace.count tr "distributed.run" in
        let fper x = float_of_int x /. float_of_int (max 1 per) in
        let self name = Trace.self_ms ~per tr name in
        [
          metric "distributed.probe_ms" "ms" (self "distributed.probe");
          metric "distributed.broadcast_ms" "ms" (self "distributed.broadcast");
          metric "distributed.choose_ms" "ms" (self "distributed.choose");
          metric "distributed.exchange_ms" "ms" (self "distributed.exchange");
          metric "distributed.membership_ms" "ms" (self "distributed.membership");
          metric "distributed.unattributed_ms" "ms" (self "distributed.run");
          metric "distributed.rounds" "rounds" dist_rounds;
          metric "distributed.port_load" "msgs" (fper !port);
          metric "netsim.messages" "msgs" (fper !sim_msgs);
          metric "netsim.msgs_per_s" "1/s"
            (if !sim_ns > 0. then float_of_int !sim_msgs /. (!sim_ns /. 1e9) else 0.);
          metric "netsim.active_node_rounds" "count" (fper !active);
          metric "netsim.delivery_ratio" "ratio" (float_of_int !delivered /. float_of_int (max 1 !sent));
          metric "selftimed.sim_ms" "ms" (self "selftimed.sim");
          metric "selftimed.unattributed_ms" "ms" (self "selftimed.run");
          metric "selftimed.rounds" "rounds" st_rounds;
          metric "selftimed.messages" "msgs" (fper !st_msgs);
          metric "bstar.topology_ms" "ms"
            (Trace.total_ms ~per:(Trace.count tr "bstar.topology") tr "bstar.topology");
          metric "rss.loop_growth_mb" "MB" (Measure.peak_rss_mb () -. setup_rss);
          metric "trace.overhead_pct" "%" (overhead_pct ~traced:(St.p50_ms lat_tr.(0)) ~untraced:(St.p50_ms lat.(0)));
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
        metric "op_p50_ms" "ms" (St.p50_ms lat.(0));
        metric "alt_p50_ms" "ms" (St.p50_ms lat.(1));
        metric "ring_len_mean" "nodes" ring_len_mean;
      ];
    layers;
    exact =
      [
        ("inputs_digest", Measure.Digest62.hex inputs);
        ("ring_len_mean", Printf.sprintf "%.3f" ring_len_mean);
        ("dist_rounds", Printf.sprintf "%.3f" dist_rounds);
        ("selftimed_rounds", Printf.sprintf "%.3f" st_rounds);
      ];
    notes =
      [
        Printf.sprintf "B(2,%d) (%d nodes), pool of %d fault sets, f in {%s}" n p.W.size pool_size
          (String.concat "," (Array.to_list (Array.map string_of_int fs)));
        Printf.sprintf "trials: %d untraced + %d traced" (St.count lat.(0)) (St.count lat_tr.(0));
      ];
  }
