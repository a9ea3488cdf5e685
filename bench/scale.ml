(* Simulator scale study (EXPERIMENTS.md "netsim at scale").

   Three workloads on fault-free B(d,n), run under the seed full-scan
   engine (Oracles.Netsim_reference, list protocols over a
   materialized Digraph) and the worklist engine (Netsim.Simulator,
   flat-mailbox protocols over the implicit B(d,n)):

   - flood: BFS broadcast from node 0 — each node forwards once, so
     per-round activity is only the BFS frontier.  This is the sparse
     regime the worklist engine was built for.
   - spin k: every node XOR-accumulates its inbox and forwards along
     its first De Bruijn edge for k rounds — all nodes active every
     round, a pure throughput measurement (rounds/sec with n nodes
     stepping).
   - token k: one token hops along first edges for k rounds.

   Both network-level FFC engines are then timed at f >> d - 2 on
   B(2,10) (the "distributed" rows), and the section ends with the
   million-node acceptance run: distributed FFC on B(2,17) with one
   fault must produce the very successor map and cycle of the
   centralized Ffc.Embed construction. *)

module W = Debruijn.Word
module DG = Graphlib.Digraph
module S = Netsim.Simulator
module R = Oracles.Netsim_reference

let time = Jrec.time

(* Best-of-k wall time: scale numbers go into EXPERIMENTS.md, and min
   over a few runs is the usual way to shed scheduler noise. *)
let best_of k f =
  let best = ref infinity in
  for _ = 1 to k do
    let _, wall = time f in
    if wall < !best then best := wall
  done;
  !best

let no_fault _ = false

(* --json support is shared ({!Jrec}): every printed measurement is
   also recorded as a flat JSON object — wall clock and GC allocation
   counters uniformly — and dumped to BENCH_scale.json. *)
let jstr = Jrec.jstr
let jint = Jrec.jint
let jnum = Jrec.jnum
let jbool = Jrec.jbool
let record = Jrec.record

(* Each workload twice: as a seed-style list protocol for the
   reference engine, and as a flat-mailbox protocol for the worklist
   engine, same behavior message for message.  Protocol state is
   mutable, so every run takes a fresh protocol. *)

(* The first De Bruijn successor of [v], x₂…xₙ0. *)
let first_succ (p : W.params) v = v mod (p.W.size / p.W.d) * p.W.d

(* BFS broadcast: a node forwards to all out-neighbors on first
   receipt; node 0 kicks off in round 0 (where every node steps once,
   so the uninformed must stay silent on an empty inbox). *)
let flood_r g =
  {
    R.initial = (fun v -> v = 0);
    step =
      (fun ~round v informed inbox ->
        if round = 0 then
          (informed, if v = 0 then List.map (fun w -> (w, ())) (DG.succs g v) else [])
        else if informed || List.is_empty inbox then (informed, [])
        else (true, List.map (fun w -> (w, ())) (DG.succs g v)));
    wants_step = (fun _ -> false);
  }

let flood (p : W.params) =
  let informed = Bytes.make p.W.size '\000' in
  Bytes.set informed 0 '\001';
  let to_all v send = W.iter_succs p v (fun w -> send w ()) in
  {
    S.step =
      (fun ~round v inbox ~send ->
        if round = 0 then (if v = 0 then to_all v send)
        else if Bytes.get informed v = '\000' && S.Inbox.length inbox > 0 then begin
          Bytes.set informed v '\001';
          to_all v send
        end);
    wants_step = (fun _ -> false);
  }

(* Single token hopping along first edges for k rounds — one active
   node per round, the regime where the seed's per-round full scan is
   pure overhead.  State is the remaining hop count for the holder,
   −1 for everyone else. *)
let token_r g k =
  let next =
    Array.init (DG.n_nodes g) (fun v ->
        match DG.succs g v with w :: _ -> w | [] -> v)
  in
  {
    R.initial = (fun v -> if v = 1 then k else -1);
    step =
      (fun ~round:_ v st inbox ->
        let st = List.fold_left (fun _ (_, m) -> m) st inbox in
        if st > 0 then (-1, [ (next.(v), st - 1) ]) else (st, []));
    wants_step = (fun _ -> false);
  }

let token (p : W.params) k =
  let hold = Array.make p.W.size (-1) in
  hold.(1) <- k;
  {
    S.step =
      (fun ~round:_ v inbox ~send ->
        let len = S.Inbox.length inbox in
        let st = if len > 0 then S.Inbox.msg inbox (len - 1) else hold.(v) in
        if st > 0 then begin
          hold.(v) <- -1;
          send (first_succ p v) (st - 1)
        end
        else hold.(v) <- st);
    wants_step = (fun _ -> false);
  }

(* All-nodes-active round loop: k rounds of send-along-first-edge. *)
let spin_r g k =
  let next =
    Array.init (DG.n_nodes g) (fun v ->
        match DG.succs g v with w :: _ -> w | [] -> v)
  in
  {
    R.initial = (fun v -> (v, k));
    step =
      (fun ~round:_ v (acc, rem) inbox ->
        let acc = List.fold_left (fun a (s, m) -> a lxor (s + m)) acc inbox in
        if rem = 0 then ((acc, 0), [])
        else ((acc, rem - 1), [ (next.(v), acc) ]));
    wants_step = (fun (_, rem) -> rem > 0);
  }

let spin (p : W.params) k =
  let acc = Array.init p.W.size Fun.id and rem = Array.make p.W.size k in
  {
    S.step =
      (fun ~round:_ v inbox ~send ->
        for i = 0 to S.Inbox.length inbox - 1 do
          acc.(v) <- acc.(v) lxor (S.Inbox.src inbox i + S.Inbox.msg inbox i)
        done;
        if rem.(v) > 0 then begin
          rem.(v) <- rem.(v) - 1;
          send (first_succ p v) acc.(v)
        end);
    wants_step = (fun v -> rem.(v) > 0);
  }

let row ~ctx:(d, n, workload) name (g : Jrec.gc_timed) rounds delivered =
  Printf.printf "  %-24s %8.3f s %6d rounds %10.0f rounds/s %8.2f Mmsg/s\n" name
    g.Jrec.wall_s rounds
    (float_of_int rounds /. g.Jrec.wall_s)
    (float_of_int delivered /. g.Jrec.wall_s /. 1e6);
  record
    ([
       ("section", jstr "netsim");
       ("d", jint d);
       ("n", jint n);
       ("workload", jstr workload);
       ("engine", jstr name);
     ]
    @ Jrec.gc_fields g
    @ [ ("rounds", jint rounds); ("delivered", jint delivered) ])

let engines ~ctx ~p ~with_seed proto_s proto_r =
  if with_seed then begin
    let g = Debruijn.Graph.b p in
    let r, gt =
      Jrec.time_gc (fun () ->
          R.run ~max_rounds:10_000 ~topology:g ~faulty:no_fault (proto_r g))
    in
    row ~ctx "seed full-scan" gt r.R.rounds r.R.delivered
  end
  else print_endline "  seed full-scan               (skipped: too slow at this size)";
  let r, gt =
    Jrec.time_gc (fun () ->
        S.run ~max_rounds:10_000 ~topology:(S.de_bruijn p) ~faulty:no_fault (proto_s p))
  in
  row ~ctx "worklist" gt r.S.rounds r.S.delivered

let workload ~with_seed ~d ~n ~k =
  let p = W.params ~d ~n in
  Printf.printf "B(%d,%d): %d nodes, %d edges\n" d n p.W.size (p.W.size * d);
  Printf.printf " flood (frontier-sparse)\n";
  engines ~ctx:(d, n, "flood") ~p ~with_seed flood flood_r;
  Printf.printf " spin k=%d (all nodes active)\n" k;
  engines ~ctx:(d, n, "spin") ~p ~with_seed (fun p -> spin p k) (fun g -> spin_r g k);
  let tk = 512 in
  Printf.printf " token k=%d (one node active per round)\n" tk;
  engines ~ctx:(d, n, "token") ~p
    ~with_seed:(with_seed && p.W.size <= 20_000)
    (fun p -> token p tk)
    (fun g -> token_r g tk)

let distributed_acceptance () =
  let p = W.params ~d:2 ~n:17 in
  let faults = [ 1 ] in
  print_endline (String.make 78 '-');
  Printf.printf
    "acceptance: distributed FFC on B(2,17) (%d nodes, f = %d) vs Ffc.Embed\n"
    p.W.size (List.length faults);
  match Ffc.Bstar.compute p ~faults with
  | None -> print_endline "  no live necklace (unexpected)"
  | Some b ->
      let emb, t_emb = time (fun () -> Ffc.Embed.of_bstar b) in
      Printf.printf "  centralized Embed.of_bstar      %8.3f s (ring length %d)\n"
        t_emb (Array.length emb.Ffc.Embed.cycle);
      let dist, t_dist = time (fun () -> Ffc.Distributed.run b) in
      let st = dist.Ffc.Distributed.stats in
      Printf.printf
        "  distributed run                 %8.3f s (%d rounds, %d messages)\n"
        t_dist st.Ffc.Distributed.total_rounds
        st.Ffc.Distributed.messages;
      let same_succ =
        dist.Ffc.Distributed.successor
        = Graphlib.Flatarr.to_array emb.Ffc.Embed.successor
      in
      let same_cycle = dist.Ffc.Distributed.cycle = emb.Ffc.Embed.cycle in
      Printf.printf "  successor maps identical: %b, cycles identical: %b\n"
        same_succ same_cycle;
      if not (same_succ && same_cycle) then
        failwith "scale: distributed FFC diverged from centralized Embed"

(* Both network-level engines at f ≫ d − 2 (EXPERIMENTS.md
   "Distributed implementation"): the B(2,10) instances of the
   golden-count test in test/test_ffc.ml, f ∈ {2, 32, 64}, each the
   first substream of seed 2 whose live necklaces all lie within
   2n + 1 hops of the root, so Selftimed's fixed schedule suffices.
   Rounds, deliveries and ring length are exact counters for the gate;
   every send probes the fault set and the topology, so wall time
   would grow with f if either probe did. *)
let distributed_rows () =
  print_endline (String.make 78 '-');
  print_endline "NETWORK-LEVEL FFC AT f >> d-2 - Distributed and Selftimed on B(2,10)";
  print_endline (String.make 78 '-');
  let p = W.params ~d:2 ~n:10 in
  let draw f =
    let rec go k =
      let faults =
        Util.Rng.sample_distinct (Util.Rng.split 2 k) ~k:f ~bound:p.W.size
      in
      match Ffc.Bstar.compute ~root_hint:1 p ~faults with
      | Some b when Ffc.Bstar.eccentricity_of_root b <= (2 * p.W.n) + 1 -> b
      | _ -> go (k + 1)
    in
    go 0
  in
  List.iter
    (fun f ->
      let b = draw f in
      let row engine (gt : Jrec.gc_timed) rounds delivered ring =
        Printf.printf "  f = %3d  %-12s %8.3f s %4d rounds %7d messages  ring %d\n" f
          engine gt.Jrec.wall_s rounds delivered ring;
        record
          ([
             ("section", jstr "distributed");
             ("d", jint 2);
             ("n", jint 10);
             ("f", jint f);
             ("engine", jstr engine);
           ]
          @ Jrec.gc_fields gt
          @ [
              ("rounds", jint rounds);
              ("delivered", jint delivered);
              ("ring_length", jint ring);
            ])
      in
      let d, gt = Jrec.time_gc (fun () -> Ffc.Distributed.run b) in
      let s = d.Ffc.Distributed.stats in
      row "distributed" gt s.Ffc.Distributed.total_rounds s.Ffc.Distributed.messages
        (Array.length d.Ffc.Distributed.cycle);
      let st, gt = Jrec.time_gc (fun () -> Ffc.Selftimed.run b) in
      row "selftimed" gt st.Ffc.Selftimed.total_rounds st.Ffc.Selftimed.messages
        (Array.length st.Ffc.Selftimed.cycle))
    [ 2; 32; 64 ]

(* Centralized FFC at scale (EXPERIMENTS.md "centralized FFC at
   scale"): the implicit/flat pipeline sweeps B(2,17) → B(2,22) with one
   fault, each ring verified arithmetically; the frozen list-based
   reference is timed at B(2,17) only (its Digraph/Hashtbl state makes
   larger instances pointless) and the speedup is the number the
   rewrite is accountable to.  The heap column is the live major heap
   after a compaction with the embedding still referenced — the
   O(size)-words claim made measurable (the process-wide
   [top_heap_words] would be dominated by whatever section ran
   before). *)
let ffc_scale ~smoke () =
  print_endline (String.make 78 '-');
  print_endline
    "CENTRALIZED FFC AT SCALE - implicit/flat pipeline vs list-based reference";
  print_endline (String.make 78 '-');
  (* Shed the previous section's heap so GC pressure doesn't bleed into
     these timings. *)
  Gc.compact ();
  let faults = [ 1 ] in
  let p17 = W.params ~d:2 ~n:17 in
  let reps = if smoke then 2 else 5 in
  let t_imp =
    best_of reps (fun () -> ignore (Option.get (Ffc.Embed.embed p17 ~faults)))
  in
  let t_ref =
    best_of reps (fun () -> ignore (Oracles.Ffc_reference.embed p17 ~faults))
  in
  Printf.printf
    "B(2,17), f = 1 (best of %d):\n\
    \  implicit pipeline        %8.3f s\n\
    \  list-based reference     %8.3f s\n\
    \  speedup                  %7.1fx\n"
    reps t_imp t_ref (t_ref /. t_imp);
  (* Allocation is deterministic per run, so one extra instrumented run
     per pipeline puts GC counters next to the best-of wall times. *)
  let _, gc_imp =
    Jrec.time_gc (fun () -> ignore (Option.get (Ffc.Embed.embed p17 ~faults)))
  in
  let _, gc_ref =
    Jrec.time_gc (fun () -> ignore (Oracles.Ffc_reference.embed p17 ~faults))
  in
  record
    [
      ("section", jstr "ffc");
      ("d", jint 2);
      ("n", jint 17);
      ("pipeline", jstr "reference");
      ("wall_s", jnum t_ref);
      ("minor_words", jnum gc_ref.Jrec.minor_words);
      ("major_words", jnum gc_ref.Jrec.major_words);
      ("max_rss_kb", jint gc_ref.Jrec.max_rss_kb);
      ("speedup_vs_reference", jnum 1.0);
    ];
  record
    [
      ("section", jstr "ffc");
      ("d", jint 2);
      ("n", jint 17);
      ("pipeline", jstr "implicit");
      ("wall_s", jnum t_imp);
      ("minor_words", jnum gc_imp.Jrec.minor_words);
      ("major_words", jnum gc_imp.Jrec.major_words);
      ("max_rss_kb", jint gc_imp.Jrec.max_rss_kb);
      ("speedup_vs_reference", jnum (t_ref /. t_imp));
    ];
  let sweep = if smoke then [ 17 ] else [ 17; 18; 19; 20; 21; 22 ] in
  print_endline " implicit pipeline, one fault, ring verified arithmetically:";
  List.iter
    (fun n ->
      let p = W.params ~d:2 ~n in
      let e, gt = Jrec.time_gc (fun () -> Option.get (Ffc.Embed.embed p ~faults)) in
      let ok = Ffc.Embed.verify e in
      Gc.compact ();
      let heap = (Gc.stat ()).Gc.live_words in
      Printf.printf
        "  B(2,%2d) %9d nodes  embed %8.3f s  verify %b  live heap %6.1f Mwords\n"
        n p.W.size gt.Jrec.wall_s ok
        (float_of_int heap /. 1e6);
      record
        ([
           ("section", jstr "ffc-sweep");
           ("d", jint 2);
           ("n", jint n);
           ("nodes", jint p.W.size);
           ("pipeline", jstr "implicit");
         ]
        @ Jrec.gc_fields gt
        @ [
            ("verified", jbool ok);
            ("ring_length", jint (Ffc.Embed.length e));
            ("live_heap_words", jint heap);
          ]);
      if not ok then failwith "scale: implicit FFC ring failed verification")
    sweep

let run ?(json = false) ?(smoke = false) () =
  print_endline (String.make 78 '-');
  print_endline
    "SIMULATOR AT SCALE - seed full-scan vs worklist engine, B(4,7) .. B(2,20)";
  print_endline (String.make 78 '-');
  workload ~with_seed:true ~d:4 ~n:7 ~k:32;
  if not smoke then begin
    workload ~with_seed:true ~d:2 ~n:14 ~k:32;
    workload ~with_seed:true ~d:2 ~n:17 ~k:16;
    workload ~with_seed:false ~d:2 ~n:20 ~k:8
  end;
  ffc_scale ~smoke ();
  distributed_rows ();
  if not smoke then distributed_acceptance ();
  print_newline ();
  if json then Jrec.write "BENCH_scale.json"
