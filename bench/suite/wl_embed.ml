(* embed-batch: repeated batch embeddings of B(2,20) under seeded node
   faults, through one reused workspace.

   A pool of fault sets (f cycling through 1, 8, 64, 512) is generated
   from the seed; trials walk the pool in a fixed 10:3 interleave of
   sequential trials and [~domains:2] trials.  Each trial is one
   [Embed.embed ~root_hint:1 ~ws] call, timed alone; its ring is then
   checked (untimed) with [Embed.verify], the Proposition 2.2/2.3 length
   bound, and against the ring the same pool entry produced on its
   first visit — so the x2 path is also checked bit-identical to x1.

   The traced form of a trial composes the stages itself, in the order
   [Embed.of_bstar] runs them — Bstar.compute, Adjacency.build,
   Spanning.build, Spanning.modify, Embed.successor_map and the ring
   walk (Cycle.of_successor_flat_n) — each in its own span. *)

module W = Debruijn.Word
module St = Measure.Strata
open Workload

let fs_full = [ 1; 8; 64; 512 ]
let fs_smoke = [ 1; 4; 16; 32 ]

(* Ops are issued in cycles of 13: positions 4, 8 and 12 run x2. *)
let is_x2 t =
  let c = t mod 13 in
  c = 4 || c = 8 || c = 12

type entry = { f : int; faults : int list }

type first_visit = { len : int; digest : int }

(* The stages of [Embed.of_bstar], each in a span; [sfx] tags the x2
   variant's span names. *)
let traced_embed tr ~sfx ?domains ~ws p ~faults =
  let sp name f = Trace.span tr (name ^ sfx) f in
  sp "embed" (fun () ->
      match
        sp "bstar" (fun () -> Ffc.Bstar.compute ~root_hint:1 ?domains ~ws p ~faults)
      with
      | None -> None
      | Some bstar ->
          let adj = sp "adjacency" (fun () -> Ffc.Adjacency.build ~ws bstar) in
          let tree = sp "spanning.build" (fun () -> Ffc.Spanning.build ?domains ~ws adj) in
          let modified = sp "spanning.modify" (fun () -> Ffc.Spanning.modify ~ws tree) in
          let successor =
            sp "embed.successor" (fun () -> Ffc.Embed.successor_map ?domains ~ws modified)
          in
          let cycle =
            sp "cycle.walk" (fun () ->
                Graphlib.Cycle.of_successor_flat_n ~start:bstar.Ffc.Bstar.root successor)
          in
          Option.map (fun cycle -> { Ffc.Embed.bstar; modified; successor; cycle }) cycle)

let run (cfg : cfg) =
  let n = if cfg.smoke then 10 else 20 in
  let fs = Array.of_list (if cfg.smoke then fs_smoke else fs_full) in
  let pool_size = 2 * Array.length fs in
  let p = W.params ~d:2 ~n in
  let tr = cfg.trace in
  let setup () =
    let pool =
      Array.init pool_size (fun i ->
          let f = fs.(i mod Array.length fs) in
          let rng = Util.Rng.split cfg.seed i in
          { f; faults = Util.Rng.sample_distinct rng ~k:f ~bound:p.W.size })
    in
    let ws = Trace.span tr "workspace.create" (fun () -> Ffc.Workspace.create p) in
    (* Warm-up: first touch of the arena on both paths. *)
    let faults = pool.(0).faults in
    ignore (Ffc.Embed.embed ~root_hint:1 ~ws p ~faults);
    ignore (Ffc.Embed.embed ~root_hint:1 ~domains:2 ~ws p ~faults);
    (pool, ws)
  in
  let (pool, ws), setup_s, setup_rss = Measure.repeated_setup setup in
  let inputs = Measure.Digest62.create () in
  Array.iter
    (fun e ->
      Measure.Digest62.add inputs e.f;
      Measure.Digest62.add_list inputs e.faults)
    pool;
  let tally = Measure.Tally.create () in
  let firsts = Array.make pool_size None in
  (* [lat.(0)] x1, [lat.(1)] x2, each split by fault count. *)
  let nf = Array.length fs in
  let lat = [| St.create nf; St.create nf |] and lat_tr = [| St.create nf; St.create nf |] in
  let counts = [| 0; 0 |] in
  let t = ref 0 in
  let started = Measure.now_ns () in
  while continue cfg ~started ~done_:!t ~min_ops:13 do
    let x2 = is_x2 !t in
    let cls = if x2 then 1 else 0 in
    let j = counts.(cls) in
    counts.(cls) <- j + 1;
    let idx = j mod pool_size in
    let e = pool.(idx) in
    let domains = if x2 then Some 2 else None in
    let traced = traced_turn cfg ~period:pool_size j in
    Trace.with_op tr !t;
    Measure.Tally.attempt tally;
    let what () = Printf.sprintf "trial %d (pool %d, f=%d, x%d)" !t idx e.f (cls + 1) in
    (match
       Measure.timed (fun () ->
           if traced then
             traced_embed tr ~sfx:(if x2 then "_x2" else "") ?domains ~ws p ~faults:e.faults
           else Ffc.Embed.embed ~root_hint:1 ?domains ~ws p ~faults:e.faults)
     with
    | exception Ffc.Pipeline_error.Error err ->
        Measure.Tally.fail tally
          (Printf.sprintf "%s: %s" (what ()) (Ffc.Pipeline_error.to_string err))
    | None, _ -> Measure.Tally.fail tally (what () ^ ": no ring")
    | Some r, ns ->
        St.add (if traced then lat_tr.(cls) else lat.(cls)) (idx mod nf) ns;
        let ok = Trace.span tr "embed.verify" (fun () -> Ffc.Embed.verify ~ws r) in
        Measure.Tally.check tally ok (fun () -> what () ^ ": Embed.verify failed");
        let len = Ffc.Embed.length r in
        (match Ffc.Campaign.length_bound p e.f with
        | Some b ->
            Measure.Tally.check tally (len >= b) (fun () ->
                Printf.sprintf "%s: ring length %d below bound %d" (what ()) len b)
        | None -> ());
        let digest = Measure.digest_array r.Ffc.Embed.cycle in
        (match firsts.(idx) with
        | None -> firsts.(idx) <- Some { len; digest }
        | Some fv ->
            Measure.Tally.check tally
              (fv.len = len && fv.digest = digest)
              (fun () -> what () ^ ": ring differs from this input's first ring")));
    Measure.settle ();
    incr t
  done;
  let lens = Array.to_list firsts |> List.filter_map (Option.map (fun fv -> fv.len)) in
  let ring_len_mean =
    float_of_int (List.fold_left ( + ) 0 lens) /. float_of_int (max 1 (List.length lens))
  in
  let rings = Measure.Digest62.create () in
  Array.iter
    (Option.iter (fun fv ->
         Measure.Digest62.add rings fv.len;
         Measure.Digest62.add rings fv.digest))
    firsts;
  let layers =
    match tr with
    | None -> []
    | Some tr ->
        let per1 = Trace.count tr "embed" and per2 = Trace.count tr "embed_x2" in
        let self1 name = Trace.self_ms ~per:per1 tr name in
        let self2 name = Trace.self_ms ~per:per2 tr name in
        let words per name = if per = 0 then 0. else Trace.words tr name /. float_of_int per in
        [
          metric "bstar.self_ms" "ms" (self1 "bstar");
          metric "bstar.minor_words" "words" (words per1 "bstar");
          metric "adjacency.self_ms" "ms" (self1 "adjacency");
          metric "spanning.build_ms" "ms" (self1 "spanning.build");
          metric "spanning.modify_ms" "ms" (self1 "spanning.modify");
          metric "spanning.minor_words" "words"
            (words per1 "spanning.build" +. words per1 "spanning.modify");
          metric "embed.successor_ms" "ms" (self1 "embed.successor");
          metric "cycle.walk_ms" "ms" (self1 "cycle.walk");
          metric "embed.unattributed_ms" "ms" (self1 "embed");
          metric "embed.total_ms" "ms" (Trace.total_ms ~per:per1 tr "embed");
          metric "embed.minor_words" "words" (words per1 "embed");
          metric "embed.verify_ms" "ms"
            (Trace.total_ms ~per:(Trace.count tr "embed.verify") tr "embed.verify");
          metric "bstar.self_x2_ms" "ms" (self2 "bstar_x2");
          metric "spanning.build_x2_ms" "ms" (self2 "spanning.build_x2");
          metric "embed.successor_x2_ms" "ms" (self2 "embed.successor_x2");
          metric "embed.minor_words_x2" "words" (words per2 "embed_x2");
          metric "workspace.create_ms" "ms"
            (Trace.total_ms ~per:(Trace.count tr "workspace.create") tr "workspace.create");
          metric "rss.loop_growth_mb" "MB" (Measure.peak_rss_mb () -. setup_rss);
          metric "trace.overhead_pct" "%"
            (overhead_pct ~traced:(St.p50_ms lat_tr.(0)) ~untraced:(St.p50_ms lat.(0)));
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
        ("rings_digest", Measure.Digest62.hex rings);
        ("ring_len_mean", Printf.sprintf "%.3f" ring_len_mean);
      ];
    notes =
      [
        Printf.sprintf "B(2,%d) (%d nodes), pool of %d fault sets, f in {%s}" n p.W.size
          pool_size
          (String.concat "," (Array.to_list (Array.map string_of_int fs)));
        Printf.sprintf "trials: x1 %d untraced + %d traced, x2 %d untraced + %d traced"
          (St.count lat.(0)) (St.count lat_tr.(0)) (St.count lat.(1)) (St.count lat_tr.(1));
      ];
  }
