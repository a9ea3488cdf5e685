(* Node-fault campaigns at scale (EXPERIMENTS.md "Node faults at
   scale"): the Table 2.1/2.2 experiment re-run at the thesis's size and
   then far past it, through the arena-pooled FFC pipeline.

   Three studies:

   - the thesis tables: B(2,10) (Table 2.1) and B(4,5) (Table 2.2),
     mean |B*| / ring length / ecc(R) per fault count, plus the
     Proposition 2.2/2.3 bound checks the thesis argues by;
   - workspace vs fresh on B(2,17): the same seeded trials on one
     reused workspace and, in the [fresh] rows, on a workspace made per
     trial (make a workspace, run the workspace path) — statistics
     bit-identical, wall and GC allocation counters the difference.
     [speedup_vs_fresh] and the per-trial minor words are the arena's
     headline numbers;
   - the scale sweep: the same campaign out to B(2,22) (4.2M nodes).

   Everything except wall_s and the GC figures is deterministic
   (seeded splitmix64 substreams, domain- and reuse-invariant), which
   is what lets CI gate on the campaign statistics. *)

module W = Debruijn.Word
module Ca = Ffc.Campaign

let jstr = Jrec.jstr
let jint = Jrec.jint
let jnum = Jrec.jnum
let record = Jrec.record

let point_fields (pt : Ca.point) =
  [
    ("f", jint pt.Ca.f);
    ("trials", jint pt.Ca.trials);
    ("embedded", jint pt.Ca.embedded);
    ("verified", jint pt.Ca.verified);
    ("errors", jint pt.Ca.errors);
    ("bound_applicable", jint pt.Ca.bound_applicable);
    ("bound_ok", jint pt.Ca.bound_ok);
    ("mean_bstar_size", jnum pt.Ca.mean_bstar_size);
    ("mean_ring_length", jnum pt.Ca.mean_ring_length);
    ("mean_ecc", jnum pt.Ca.mean_ecc);
    ("min_ring_length", jint pt.Ca.min_ring_length);
    ("wall_s", jnum pt.Ca.wall_s);
    ("minor_words_per_trial", jnum pt.Ca.minor_words_per_trial);
    ("major_words_per_trial", jnum pt.Ca.major_words_per_trial);
    ("max_rss_kb", jint (Jrec.max_rss_kb ()));
  ]

let print_point (pt : Ca.point) =
  Printf.printf
    "  f=%3d  embedded %2d/%2d  verified %2d  bound %s  |B*| %10.1f  ring \
     %10.1f  ecc %6.2f  min %9d  %7.4f s/trial  minor %7.0f w/trial\n"
    pt.Ca.f pt.Ca.embedded pt.Ca.trials pt.Ca.verified
    (if pt.Ca.bound_applicable = 0 then "  -  "
     else Printf.sprintf "%2d/%-2d" pt.Ca.bound_ok pt.Ca.bound_applicable)
    pt.Ca.mean_bstar_size pt.Ca.mean_ring_length pt.Ca.mean_ecc
    pt.Ca.min_ring_length
    (pt.Ca.wall_s /. float_of_int pt.Ca.trials)
    pt.Ca.minor_words_per_trial

let bounds_hold (pts : Ca.point list) =
  List.for_all (fun pt -> pt.Ca.bound_ok = pt.Ca.bound_applicable) pts

(* One campaign table; every point becomes a JSON row keyed by
   (d, n, f, engine). *)
let table ~engine ?domains ?reuse ~trials ?fs ~d ~n () =
  let size = (W.params ~d ~n).W.size in
  Printf.printf " campaign: B(%d,%d) (%d nodes), %d trials/point [%s]\n" d n size
    trials engine;
  let pts = Ca.run ?domains ?reuse ~trials ?fs ~d ~n () in
  List.iter
    (fun pt ->
      print_point pt;
      record
        ([
           ("section", jstr "ffc-campaign");
           ("d", jint d);
           ("n", jint n);
           ("engine", jstr engine);
         ]
        @ point_fields pt))
    pts;
  if not (bounds_hold pts) then
    failwith "ffc-campaign: a Proposition 2.2/2.3 bound failed";
  pts

let total_wall pts =
  List.fold_left (fun acc (pt : Ca.point) -> acc +. pt.Ca.wall_s) 0. pts

(* The arena's accounting: identical seeded trials on a workspace made
   per trial ([~reuse:false], the fresh rows) and on one reused
   workspace, sequentially (gated rows), then the reused path
   striding its trials over 4 domains (machine-dependent, so the engine
   name makes the gate skip it).  A point's wall_s sums its trials' own
   times, so the x4 ratio compares per-trial cost with trials running
   side by side, not elapsed time. *)
let ws_vs_fresh ~smoke () =
  (* B(2,12) in smoke, not B(2,10): distinct from the Table-2.1 instance
     so every JSON row identity (d, n, engine, f) stays unique. *)
  let d = 2 and n = if smoke then 12 else 17 in
  let trials = if smoke then 5 else 10 in
  let fs = [ 5 ] in
  Printf.printf " workspace reused vs made per trial on B(%d,%d), f=5:\n" d n;
  let fresh = table ~engine:"fresh" ~reuse:false ~trials ~fs ~d ~n () in
  let ws = table ~engine:"workspace" ~trials ~fs ~d ~n () in
  let speedup = total_wall fresh /. total_wall ws in
  Printf.printf "  sequential speedup (fresh/workspace): %5.2fx\n" speedup;
  record
    [
      ("section", jstr "ffc-campaign-speedup");
      ("d", jint d);
      ("n", jint n);
      ("engine", jstr "workspace");
      ("speedup_vs_fresh", jnum speedup);
      ("top_heap_words", jint (Jrec.top_heap_words ()));
    ];
  let domains = 4 in
  let par =
    table
      ~engine:(Printf.sprintf "workspace x%d domains" domains)
      ~domains ~trials ~fs ~d ~n ()
  in
  let par_speedup = total_wall fresh /. total_wall par in
  Printf.printf "  fresh/workspace at %d domains (trial times summed): %5.2fx (%d cores)\n"
    domains par_speedup
    (Domain.recommended_domain_count ());
  record
    [
      ("section", jstr "ffc-campaign-speedup");
      ("d", jint d);
      ("n", jint n);
      ("engine", jstr (Printf.sprintf "workspace x%d domains" domains));
      ("speedup_vs_fresh", jnum par_speedup);
      ("cores", jint (Domain.recommended_domain_count ()));
    ]

let run ?(json = false) ?(smoke = false) () =
  print_endline (String.make 78 '-');
  print_endline
    "NODE-FAULT CAMPAIGNS - Tables 2.1/2.2 shape, arena-pooled FFC pipeline";
  print_endline (String.make 78 '-');
  (* The thesis's own instances. *)
  let trials = if smoke then 5 else 50 in
  ignore (table ~engine:"workspace" ~trials ~d:2 ~n:10 ());
  ignore (table ~engine:"workspace" ~trials ~d:4 ~n:5 ());
  ws_vs_fresh ~smoke ();
  if not smoke then begin
    print_endline " scale sweep (one workspace, reused across every trial):";
    ignore (table ~engine:"workspace" ~trials:5 ~d:2 ~n:20 ());
    ignore (table ~engine:"workspace" ~trials:3 ~d:2 ~n:22 ())
  end;
  print_newline ();
  if json then Jrec.write "BENCH_ffc_campaign.json"
