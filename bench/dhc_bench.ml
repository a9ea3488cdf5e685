(* Chapter-3 engine at scale (EXPERIMENTS.md "Edge faults at scale").

   Three studies on the streaming LFSR engine:

   - streaming vs the frozen seed engine (Oracles.Dhc_reference): wall
     time to produce a fault-avoiding Hamiltonian ring.  The seed
     materializes dⁿ-length arrays and scans the fault list per probe;
     the stream is a handful of closures and O(1) bitset probes.
   - ring walks at million-node scale: the B(2,22) acceptance walk
     (4.2M-node ring checked Hamiltonian and De Bruijn edge-by-edge in
     O(1) memory), a faulted B(4,11) run, and pairwise edge-disjointness
     of the ψ(4) streams on B(4,10) by walk + successor probe.
   - randomized edge-fault campaigns (Dhc.Campaign) sweeping f past
     MAX(ψ−1, φ): success rates per route and mean ring lengths.

   All statistics except wall_s are deterministic (seeded PRNG,
   domain-invariant), which is what lets CI gate on them. *)

module W = Debruijn.Word
module EF = Dhc.Edge_fault
module R = Oracles.Dhc_reference
module Str = Dhc.Stream
module Ca = Dhc.Campaign

let time = Jrec.time
let jstr = Jrec.jstr
let jint = Jrec.jint
let jnum = Jrec.jnum
let jbool = Jrec.jbool
let record = Jrec.record

let random_faults ~d ~n ~f ~seed =
  let p = W.params ~d ~n in
  let rng = Util.Rng.create seed in
  List.map (W.edge_of_code p)
    (Util.Rng.sample_distinct rng ~k:f ~bound:(p.W.size * p.W.d))

(* Seed engine vs streaming engine on the same fault sets; outputs are
   compared digit-for-digit while we're at it. *)
let streaming_vs_reference ~smoke () =
  print_endline " streaming engine vs frozen seed (best_hc_avoiding):";
  let cases = if smoke then [ (4, 8, 2) ] else [ (4, 8, 2); (6, 6, 1); (3, 10, 1) ] in
  List.iter
    (fun (d, n, f) ->
      let faults = random_faults ~d ~n ~f ~seed:((100 * d) + n) in
      let ref_hc, gt_ref =
        Jrec.time_gc (fun () -> Option.get (R.best_hc_avoiding ~d ~n ~faults))
      in
      let st, gt_stream =
        Jrec.time_gc (fun () -> Option.get (EF.best_hc_avoiding_stream ~d ~n ~faults))
      in
      let t_ref = gt_ref.Jrec.wall_s and t_stream = gt_stream.Jrec.wall_s in
      let same = Str.to_sequence st = ref_hc in
      Printf.printf
        "  B(%d,%2d) f=%d  seed %8.3f s  stream %8.6f s  speedup %9.1fx  same output %b\n"
        d n f t_ref t_stream (t_ref /. t_stream) same;
      record
        ([
           ("section", jstr "dhc-engine");
           ("d", jint d);
           ("n", jint n);
           ("f", jint f);
           ("engine", jstr "reference");
         ]
        @ Jrec.gc_fields gt_ref
        @ [ ("speedup_vs_reference", jnum 1.0) ]);
      record
        ([
           ("section", jstr "dhc-engine");
           ("d", jint d);
           ("n", jint n);
           ("f", jint f);
           ("engine", jstr "stream");
         ]
        @ Jrec.gc_fields gt_stream
        @ [
            ("speedup_vs_reference", jnum (t_ref /. t_stream));
            ("same_output", jbool same);
          ]);
      if not same then failwith "dhc: streaming engine diverged from Reference")
    cases

(* The acceptance run: a fault-free ring of B(2,22) built and walked
   entirely through successor arithmetic.  The live-heap column (major
   heap after compaction, stream still referenced) is the bounded-memory
   claim made measurable — the materialized ring alone would be 4.2M
   words. *)
let acceptance_walk () =
  Gc.compact ();
  let d = 2 and n = 22 in
  let p = W.params ~d ~n in
  let (st, t_build, ham, t_ham, db, t_db), gt =
    Jrec.time_gc (fun () ->
        let st, t_build =
          time (fun () -> Option.get (EF.best_hc_avoiding_stream ~d ~n ~faults:[]))
        in
        let ham, t_ham = time (fun () -> Str.is_hamiltonian st) in
        let db, t_db = time (fun () -> Str.is_de_bruijn_walk st) in
        (st, t_build, ham, t_ham, db, t_db))
  in
  Gc.compact ();
  let heap = (Gc.stat ()).Gc.live_words in
  Printf.printf
    " acceptance: B(2,22) %d-node ring  build %8.6f s  hamiltonian walk %6.3f s  \
     edge walk %6.3f s  ok %b  live heap %.2f Mwords\n"
    p.W.size t_build t_ham t_db (ham && db)
    (float_of_int heap /. 1e6);
  record
    ([
       ("section", jstr "dhc-acceptance");
       ("d", jint d);
       ("n", jint n);
       ("nodes", jint p.W.size);
       ("ring_length", jint st.Str.length);
     ]
    @ Jrec.gc_fields gt
    @ [ ("verified", jbool (ham && db)); ("live_heap_words", jint heap) ]);
  if not (ham && db) then failwith "dhc: B(2,22) streaming ring failed verification"

(* Faults at the same scale: φ(4) = 2 random faults on the 4.2M-node
   B(4,11), ring checked fault-free against the bitset. *)
let faulted_walk () =
  let d = 4 and n = 11 in
  let p = W.params ~d ~n in
  let faults = random_faults ~d ~n ~f:2 ~seed:411 in
  let (st, t_build, ok, t_walk), gt =
    Jrec.time_gc (fun () ->
        let st, t_build =
          time (fun () -> Option.get (EF.best_hc_avoiding_stream ~d ~n ~faults))
        in
        let fs = EF.Faults.make p faults in
        let ok, t_walk =
          time (fun () -> Str.is_hamiltonian st && Str.avoids st (EF.Faults.mem fs))
        in
        (st, t_build, ok, t_walk))
  in
  Printf.printf
    " faulted: B(4,11) %d nodes, f=2  build %8.6f s  walks %6.3f s  fault-free \
     hamiltonian %b\n"
    p.W.size t_build t_walk ok;
  record
    ([
       ("section", jstr "dhc-faulted");
       ("d", jint d);
       ("n", jint n);
       ("f", jint 2);
       ("ring_length", jint st.Str.length);
     ]
    @ Jrec.gc_fields gt
    @ [ ("verified", jbool ok) ]);
  if not ok then failwith "dhc: faulted B(4,11) ring failed verification"

(* ψ(4) = 3 disjoint Hamiltonian streams of the million-node B(4,10):
   pairwise disjointness by walking one stream and probing the other's
   successor — the O(1)-memory form of Lemma 3.3/Proposition 3.2. *)
let disjoint_walks () =
  let d = 4 and n = 10 in
  let streams = Dhc.Compose.disjoint_hamiltonian_streams ~d ~n in
  let ok, gt =
    Jrec.time_gc (fun () ->
        let rec pairs = function
          | [] -> true
          | a :: rest -> List.for_all (Str.edge_disjoint a) rest && pairs rest
        in
        pairs streams)
  in
  Printf.printf " disjoint: B(4,10) psi=%d streams pairwise edge-disjoint %b  %6.3f s\n"
    (List.length streams) ok gt.Jrec.wall_s;
  record
    ([
       ("section", jstr "dhc-disjoint");
       ("d", jint d);
       ("n", jint n);
       ("psi", jint (List.length streams));
     ]
    @ Jrec.gc_fields gt
    @ [ ("verified", jbool ok) ]);
  if not ok then failwith "dhc: disjoint streams share an edge"

let campaign_specs ~smoke =
  (* d = 6: the weakest composite (φ = 1, ψ = 1); d = 12: mixed; d = 28:
     the sole d ≤ 35 where the ψ route beats the construction. *)
  if smoke then [ (6, 2, 10) ] else [ (6, 3, 40); (12, 2, 40); (28, 2, 40) ]

(* The gated dhc-campaign rows run on one domain, as their baselines
   were made: two trials at once on a 2-vCPU box each run 2-3x slower.
   The same campaign then runs again on [multi_domains] domains, rows
   and gc row under an engine naming the domain count (which the gate
   skips), so the strided workers still run here and under tsan. *)
let multi_domains = 4

let campaign ~d ~n ~trials domains =
  let engine = Printf.sprintf "x%d domains" domains in
  let points, gt = Jrec.time_gc (fun () -> Ca.run ~domains ~trials ~d ~n ()) in
  (* Whole-campaign allocation summary, next to the per-point
     steady-state counters the points carry themselves.
     Jrec.time_gc counts the calling domain only, so this figure
     depends on the domain count — the engine name keeps the gate off
     this row. *)
  record
    ([
       ("section", jstr "dhc-campaign-gc");
       ("d", jint d);
       ("n", jint n);
       ("engine", jstr engine);
     ]
    @ Jrec.gc_fields gt);
  List.iter
    (fun (pt : Ca.point) ->
      if domains = 1 then
        Printf.printf
          "   f=%2d  success %2d/%2d (construction %2d, disjoint %2d, masked %2d)  \
           mean ring %8.1f\n"
          pt.Ca.f pt.Ca.successes pt.Ca.trials pt.Ca.via_construction
          pt.Ca.via_disjoint pt.Ca.masked_fallbacks pt.Ca.mean_ring_length;
      record
        ([ ("section", jstr "dhc-campaign"); ("d", jint d); ("n", jint n) ]
        @ (if domains = 1 then [] else [ ("engine", jstr engine) ])
        @ [
            ("f", jint pt.Ca.f);
            ("trials", jint pt.Ca.trials);
            ("successes", jint pt.Ca.successes);
            ("via_construction", jint pt.Ca.via_construction);
            ("via_disjoint", jint pt.Ca.via_disjoint);
            ("masked_fallbacks", jint pt.Ca.masked_fallbacks);
            ("mean_ring_length", jnum pt.Ca.mean_ring_length);
            ("wall_s", jnum pt.Ca.wall_s);
            ("minor_words_per_trial", jnum pt.Ca.minor_words_per_trial);
            ("major_words_per_trial", jnum pt.Ca.major_words_per_trial);
            ("max_rss_kb", jint (Jrec.max_rss_kb ()));
          ]))
    points

let campaigns ~smoke () =
  List.iter
    (fun (d, n, trials) ->
      let size = (W.params ~d ~n).W.size in
      Printf.printf " campaign: B(%d,%d) (%d nodes), %d trials/point, MAX=%d\n" d n size
        trials (Dhc.Psi.max_tolerance d);
      campaign ~d ~n ~trials 1;
      campaign ~d ~n ~trials multi_domains)
    (campaign_specs ~smoke)

let run ?(json = false) ?(smoke = false) () =
  print_endline (String.make 78 '-');
  print_endline
    "CHAPTER-3 STREAMING ENGINE - successor-function rings vs materialized seed";
  print_endline (String.make 78 '-');
  streaming_vs_reference ~smoke ();
  acceptance_walk ();
  if not smoke then begin
    faulted_walk ();
    disjoint_walks ()
  end;
  campaigns ~smoke ();
  print_newline ();
  if json then Jrec.write "BENCH_dhc.json"
