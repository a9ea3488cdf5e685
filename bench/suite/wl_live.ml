(* live-churn: one long-lived Ffc.Live engine on B(2,20) absorbing a
   seeded birth–death stream of node faults and repairs.

   The stream hovers around 8 outstanding faults: with f faults out the
   next event faults a uniform healthy node with probability 8/(8 + f)
   and repairs a uniform outstanding fault otherwise.  It is generated
   in full before the measured loop.  During set-up a fixed 500-event
   stream of the same chain, the same for every seed, warms the engine
   up and is drained back to the fault-free state.  The loop is closed: one caller applies an event, and
   issues the next only once [Live.apply] has returned with the ring
   repaired.  Events run in blocks of 5,000; after each block the
   engine's ring must equal a fresh [Embed.embed ~root_hint:1] on
   [Live.current_faults], and any [Error] from [apply] counts as a
   failed event. *)

module W = Debruijn.Word
module S = Measure.Samples
open Workload

type sizes = { n : int; target : int; warmup : int; block : int; cap : int }

let sizes cfg =
  if cfg.smoke then { n = 10; target = 8; warmup = 50; block = 200; cap = 400 }
  else
    (* The cap only bounds the pre-generated stream; at B(2,20) the
       loop's time limit ends the run long before it. *)
    let cap = 5_000 * max 2 (int_of_float (cfg.seconds *. 10.)) in
    { n = 20; target = 8; warmup = 500; block = 5_000; cap }

(* Events as ints: 2v for a fault of v, 2v + 1 for its repair. *)
let event_of_code c = if c land 1 = 0 then Ffc.Live.Fault (c lsr 1) else Ffc.Live.Repair (c lsr 1)

(* [count] events of the chain from the fault-free state, followed by
   [drain]: repairs of every fault still outstanding, in ascending order,
   which bring the engine back to the fault-free state. *)
let generate ?(drain = false) ~seed ~(p : W.params) ~target ~count () =
  let rng = Util.Rng.split seed 0 in
  let faulty = Bytes.make p.W.size '\000' in
  let active = ref (Array.make (max 16 (4 * target)) 0) in
  let f = ref 0 in
  let events =
    Array.init count (fun _ ->
      if !f = 0 || Util.Rng.int rng (target + !f) < target then begin
        let v = ref (Util.Rng.int rng p.W.size) in
        while Bytes.get faulty !v <> '\000' do
          v := Util.Rng.int rng p.W.size
        done;
        Bytes.set faulty !v '\001';
        if !f = Array.length !active then begin
          let b = Array.make (2 * !f) 0 in
          Array.blit !active 0 b 0 !f;
          active := b
        end;
        !active.(!f) <- !v;
        incr f;
        2 * !v
      end
      else begin
        let i = Util.Rng.int rng !f in
        let v = !active.(i) in
        decr f;
        !active.(i) <- !active.(!f);
        Bytes.set faulty v '\000';
        (2 * v) + 1
      end)
  in
  if not drain then events
  else
    let left = Array.sub !active 0 !f in
    Array.sort Int.compare left;
    Array.append events (Array.map (fun v -> (2 * v) + 1) left)

(* A batch fallback replaces the engine's state wholesale; collect the
   old state at once (untimed) so it never stacks up in the peak RSS. *)
let settle_after = function Ok Ffc.Live.Recomputed -> Measure.settle () | _ -> ()

let run (cfg : cfg) =
  let sz = sizes cfg in
  let p = W.params ~d:2 ~n:sz.n in
  let tr = cfg.trace in
  let setup () =
    let events = generate ~seed:cfg.seed ~p ~target:sz.target ~count:sz.cap () in
    let ws = Trace.span tr "workspace.create" (fun () -> Ffc.Workspace.create p) in
    let live =
      Trace.span tr "live.create" (fun () -> Ffc.Live.create ~root_hint:1 ~ws p ~faults:[])
    in
    (* Warm-up: the same stream for every seed — so the set-up cost does
       not depend on how many batch fallbacks a seed's first events
       happen to trigger — drained back to the fault-free state the
       seeded stream starts from. *)
    Array.iter
      (fun c -> settle_after (Ffc.Live.apply live (event_of_code c)))
      (generate ~drain:true ~seed:0 ~p ~target:sz.target ~count:sz.warmup ());
    (events, ws, live)
  in
  let (events, ws, live), setup_s, setup_rss = Measure.repeated_setup setup in
  let inputs = Measure.Digest62.create () in
  Measure.Digest62.add_array inputs events;
  let stats0 = Ffc.Live.stats live in
  let tally = Measure.Tally.create () in
  (* [lat.(k)]: k = 0 faults, 1 repairs; untraced and traced. *)
  let lat = [| S.create (); S.create () |] in
  let lat_tr = [| S.create (); S.create () |] in
  let all = S.create () and all_tr = S.create () in
  let first_block_len = ref 0 in
  let next = ref 0 in
  let blocks = ref 0 in
  let started = Measure.now_ns () in
  while
    !next + sz.block <= Array.length events
    && continue cfg ~started ~done_:!blocks ~min_ops:(if cfg.smoke then 2 else 1)
  do
    for i = !next to !next + sz.block - 1 do
      let code = events.(i) in
      let cls = code land 1 in
      let traced = traced_turn cfg ~period:1 i in
      Trace.with_op tr i;
      Measure.Tally.attempt tally;
      let ev = event_of_code code in
      let r, ns =
        Measure.timed (fun () ->
            if traced then Trace.span tr "live.apply" (fun () -> Ffc.Live.apply live ev)
            else Ffc.Live.apply live ev)
      in
      settle_after r;
      (match r with
      | Ok _ ->
          if traced then begin
            S.add lat_tr.(cls) ns;
            S.add all_tr ns
          end
          else begin
            S.add lat.(cls) ns;
            S.add all ns
          end
      | Error _ -> Measure.Tally.fail tally (Printf.sprintf "event %d rejected by Live.apply" i));
      if !blocks = 0 then first_block_len := !first_block_len + Ffc.Live.ring_length live
    done;
    next := !next + sz.block;
    incr blocks;
    (* The oracle: the repaired ring equals a fresh batch embedding. *)
    Trace.with_op tr (-1);
    Measure.Tally.attempt tally;
    let ok =
      Trace.span tr "live.oracle_check" (fun () ->
          let faults = Ffc.Live.current_faults live in
          match (Ffc.Embed.embed ~root_hint:1 ~ws p ~faults, Ffc.Live.ring live) with
          | Some e, Some ring -> Measure.rings_equal e.Ffc.Embed.cycle ring
          | None, None -> true
          | _ -> false)
    in
    Measure.settle ();
    Measure.Tally.check tally ok (fun () ->
        Printf.sprintf "after event %d: Live.ring differs from a fresh Embed.embed" (!next - 1))
  done;
  let stats1 = Ffc.Live.stats live in
  let ring_len_mean = float_of_int !first_block_len /. float_of_int sz.block in
  let nevents = stats1.Ffc.Live.events - stats0.Ffc.Live.events in
  let patched = stats1.Ffc.Live.patched - stats0.Ffc.Live.patched in
  let layers =
    match tr with
    | None -> []
    | Some tr ->
        let per name = Trace.count tr name in
        [
          metric "live.fault_p50_us" "us" (S.pct_us lat_tr.(0) 0.5);
          metric "live.repair_p50_us" "us" (S.pct_us lat_tr.(1) 0.5);
          metric "live.fault_p90_us" "us" (S.pct_us lat_tr.(0) 0.9);
          metric "live.repair_p90_us" "us" (S.pct_us lat_tr.(1) 0.9);
          metric "live.p99_us" "us" (S.pct_us all_tr 0.99);
          metric "live.patch_ratio" "ratio"
            (float_of_int patched /. float_of_int (max 1 nevents));
          metric "live.recomputed" "count"
            (float_of_int (stats1.Ffc.Live.recomputed - stats0.Ffc.Live.recomputed));
          metric "live.affected_per_event" "nodes"
            (float_of_int (stats1.Ffc.Live.affected_nodes - stats0.Ffc.Live.affected_nodes)
            /. float_of_int (max 1 patched));
          metric "live.minor_words_per_event" "words"
            (Trace.words tr "live.apply" /. float_of_int (max 1 (per "live.apply")));
          metric "live.create_ms" "ms" (Trace.total_ms ~per:(per "live.create") tr "live.create");
          metric "live.oracle_check_ms" "ms"
            (Trace.total_ms ~per:(per "live.oracle_check") tr "live.oracle_check");
          metric "workspace.create_ms" "ms"
            (Trace.total_ms ~per:(per "workspace.create") tr "workspace.create");
          metric "rss.loop_growth_mb" "MB" (Measure.peak_rss_mb () -. setup_rss);
          metric "trace.overhead_pct" "%" (overhead_pct ~traced:(S.p50_ms all_tr) ~untraced:(S.p50_ms all));
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
        ("ring_len_mean", Printf.sprintf "%.3f" ring_len_mean);
      ];
    notes =
      [
        Printf.sprintf "B(2,%d) (%d nodes), churn around %d faults, %d warm-up events" sz.n
          p.W.size sz.target sz.warmup;
        Printf.sprintf "events: %d in %d blocks of %d (faults %d + %d traced, repairs %d + %d traced)"
          nevents !blocks sz.block (S.length lat.(0)) (S.length lat_tr.(0)) (S.length lat.(1))
          (S.length lat_tr.(1));
        Printf.sprintf "outcomes: patched %d, recomputed %d, unchanged %d" patched
          (stats1.Ffc.Live.recomputed - stats0.Ffc.Live.recomputed)
          (stats1.Ffc.Live.unchanged - stats0.Ffc.Live.unchanged);
      ];
  }
