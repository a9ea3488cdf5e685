(* One FFC embed, fresh and on a warm workspace arena — the
   near-zero-allocation claim of the off-heap workspace.

   Smoke: B(2,16); full: B(2,22).  The fresh embed (no [?ws]: it makes
   a workspace, then runs the workspace path) gives wall clock, GC
   words, peak RSS and the ring; an embed on a caller's workspace must
   reproduce that ring and successor map exactly.
   The steady-state row then measures GC words per embed once the
   arena is warm, and it is gated.  The embed is sequential; the
   ffc-campaign and dhc sections time the domain-strided campaigns. *)

module W = Debruijn.Word
module E = Ffc.Embed
module Fa = Graphlib.Flatarr

let jstr = Jrec.jstr
let jint = Jrec.jint
let jnum = Jrec.jnum
let jbool = Jrec.jbool
let record = Jrec.record

let embed ~d ~n =
  let p = W.params ~d ~n in
  let faults = [ 1 ] in
  Printf.printf " single embed: B(%d,%d) (%d nodes), f = 1\n" d n p.W.size;
  let seq, gseq = Jrec.time_gc (fun () -> Option.get (E.embed p ~faults)) in
  Printf.printf "  sequential fresh        %8.3f s  minor %12.0f w\n" gseq.Jrec.wall_s
    gseq.Jrec.minor_words;
  record
    ([
       ("section", jstr "multicore");
       ("d", jint d);
       ("n", jint n);
       ("nodes", jint p.W.size);
       ("engine", jstr "sequential fresh");
     ]
    @ Jrec.gc_fields gseq
    @ [ ("verified", jbool (E.verify seq)); ("ring_length", jint (E.length seq)) ]);
  (* Steady state: one warm arena, repeated embeds.  GC words per embed
     must stay near zero — only the result cycle array and the small
     pipeline records are heap-allocated.  The warm-up embed aliases
     arena storage, so it is compared with the fresh one before the
     timed embeds reuse the arena. *)
  let ws = Ffc.Workspace.create p in
  let warm = Option.get (E.embed ~ws p ~faults) in
  if
    not
      (Fa.to_array warm.E.successor = Fa.to_array seq.E.successor
      && warm.E.cycle = seq.E.cycle && E.verify warm)
  then failwith "multicore: workspace embed diverged from the fresh one";
  let reps = 5 in
  let _, gsteady =
    Jrec.time_gc (fun () ->
        for _ = 1 to reps do
          ignore (Option.get (E.embed ~ws p ~faults))
        done)
  in
  let per = float_of_int reps in
  Printf.printf
    "  steady-state workspace  %8.3f s/embed  minor %10.1f w/embed  major %10.1f \
     w/embed\n"
    (gsteady.Jrec.wall_s /. per)
    (gsteady.Jrec.minor_words /. per)
    (gsteady.Jrec.major_words /. per);
  record
    [
      ("section", jstr "multicore-steady");
      ("d", jint d);
      ("n", jint n);
      ("nodes", jint p.W.size);
      ("engine", jstr "workspace steady");
      ("wall_s", jnum (gsteady.Jrec.wall_s /. per));
      ("minor_words", jnum (gsteady.Jrec.minor_words /. per));
      ("major_words", jnum (gsteady.Jrec.major_words /. per));
      ("max_rss_kb", jint gsteady.Jrec.max_rss_kb);
    ]

let run ?(json = false) ?(smoke = false) () =
  print_endline (String.make 78 '-');
  print_endline
    "MULTICORE - one FFC embed, fresh and on a warm off-heap workspace";
  print_endline (String.make 78 '-');
  if smoke then embed ~d:2 ~n:16 else embed ~d:2 ~n:22;
  print_newline ();
  if json then Jrec.write "BENCH_multicore.json"
