(* Collective traffic over embedded rings — ring reduce-scatter,
   all-gather and allreduce driven on (a) the FFC-embedded ring under
   node faults (Chapter 2) and (b) up to psi(d) edge-disjoint
   Hamiltonian rings under link faults (Chapter 3), each through BOTH
   executors: the message-by-message netsim reference
   Oracles.Collective_reference and the compiled zero-copy
   Collective.Fastpath that Core's drivers run.  The rings of a point
   are built once, before either executor is timed: the FFC embed plus
   the faulty-necklace flags, the first k disjoint streams, or the
   streams that survive the link faults.  Each timed call is the
   executor alone.

   Smoke: B(2,10) for the FFC cases, B(4,5) for striping, plus a
   full-scale B(2,16) bidirectional fastpath allreduce (the PR lane
   proves the compiled engine at real size on every PR); full adds
   B(2,16)/B(4,8) on both engines and the B(2,22) fastpath rows with
   their bytes/second figures (nightly big-instances).

   Every run exact-verifies the reduced integer payloads against the
   rank-space reference execution, and every fastpath run is asserted
   counter-identical to its netsim sibling here (the CI gate
   re-checks the pair from the JSON).

   Two claims are enforced, not just reported: the k-ring striped
   allreduce must move >= 0.8k times the bytes per step of one ring,
   and (full mode, where runs are long enough to time meaningfully)
   the fastpath allreduce must beat netsim by >= 20x wall-clock and
   >= 100x minor words on every matrix point. *)

let jstr = Jrec.jstr
let jint = Jrec.jint
let jnum = Jrec.jnum
let jbool = Jrec.jbool
let record = Jrec.record

let ops = [ Core.Collective_schedule.Reduce_scatter; All_gather; Allreduce ]

(* Accounted wire throughput of the executor call: 8 x wire_words /
   wall.  The figure the B(2,22) nightly rows exist for. *)
let bytes_per_s (r : Core.Collective_exec.report) (g : Jrec.gc_timed) =
  8.0
  *. float_of_int r.Core.Collective_exec.wire_words
  /. Float.max 1e-9 g.Jrec.wall_s

let row ~engine ~d ~n ~f ~op (r : Core.Collective_exec.report) g =
  record
    ([
       ("section", jstr "collective");
       ("d", jint d);
       ("n", jint n);
       ("op", jstr (Core.Collective_schedule.op_to_string op));
       ("engine", jstr engine);
       ("f", jint f);
     ]
    @ Jrec.gc_fields g
    @ [
        ("rings", jint r.Core.Collective_exec.rings);
        ("ranks", jint r.Core.Collective_exec.ranks);
        ("phases", jint r.Core.Collective_exec.phases);
        ("rounds", jint r.Core.Collective_exec.rounds);
        ("delivered", jint r.Core.Collective_exec.delivered);
        ("wire_words", jint r.Core.Collective_exec.wire_words);
        ("payload_words", jint r.Core.Collective_exec.payload_words);
        ("max_link_load", jint r.Core.Collective_exec.max_link_load);
        ("max_port_load", jint r.Core.Collective_exec.max_port_load);
        ("checksum", jint r.Core.Collective_exec.checksum);
        ("verified", jbool r.Core.Collective_exec.verified);
        ("bytes_per_step", jnum r.Core.Collective_exec.bytes_per_step);
        ("bytes_per_s", jnum (bytes_per_s r g));
      ])

let show ~engine ~op (r : Core.Collective_exec.report) g =
  Printf.printf
    "  %-13s %-26s rounds %7d  delivered %10d  B/step %8.1f  link<=%3d  ok %b  %6.2fs\n"
    (Core.Collective_schedule.op_to_string op)
    engine r.Core.Collective_exec.rounds r.Core.Collective_exec.delivered
    r.Core.Collective_exec.bytes_per_step r.Core.Collective_exec.max_link_load
    r.Core.Collective_exec.verified g.Jrec.wall_s

let check_verified ~what (r : Core.Collective_exec.report) =
  if not r.Core.Collective_exec.verified then
    failwith ("collective: exact verification failed: " ^ what)

(* The two executors implement one spec: every deterministic counter
   must agree bit-for-bit. *)
let check_agreement ~what (a : Core.Collective_exec.report)
    (b : Core.Collective_exec.report) =
  let ok =
    a.Core.Collective_exec.rings = b.Core.Collective_exec.rings
    && a.Core.Collective_exec.ranks = b.Core.Collective_exec.ranks
    && a.Core.Collective_exec.phases = b.Core.Collective_exec.phases
    && a.Core.Collective_exec.rounds = b.Core.Collective_exec.rounds
    && a.Core.Collective_exec.delivered = b.Core.Collective_exec.delivered
    && a.Core.Collective_exec.wire_words = b.Core.Collective_exec.wire_words
    && a.Core.Collective_exec.payload_words
       = b.Core.Collective_exec.payload_words
    && a.Core.Collective_exec.max_link_load
       = b.Core.Collective_exec.max_link_load
    && a.Core.Collective_exec.max_port_load
       = b.Core.Collective_exec.max_port_load
    && a.Core.Collective_exec.checksum = b.Core.Collective_exec.checksum
  in
  if not ok then
    failwith ("collective: fastpath diverged from netsim: " ^ what)

(* The tentpole acceptance floors, enforced where runs are long enough
   to time meaningfully (full mode); always reported. *)
let speedup ~what ~enforce (gn : Jrec.gc_timed) (gf : Jrec.gc_timed) =
  let wall = gn.Jrec.wall_s /. Float.max 1e-9 gf.Jrec.wall_s in
  let minor = gn.Jrec.minor_words /. Float.max 1.0 gf.Jrec.minor_words in
  Printf.printf
    "  fastpath vs netsim [%s]: wall x%.1f (floor 20), minor-words x%.1f (floor 100)%s\n"
    what wall minor
    (if enforce then "" else " [reported only]");
  if enforce && wall < 20.0 then
    failwith
      (Printf.sprintf "collective: fastpath wall speedup x%.1f below 20x (%s)"
         wall what);
  if enforce && minor < 100.0 then
    failwith
      (Printf.sprintf
         "collective: fastpath minor-words ratio x%.1f below 100x (%s)" minor
         what)

(* The rings of one point: the FFC ring avoiding the faulty
   processors (with their necklace flags), or the first k disjoint
   Hamiltonian rings, or the first k that survive [edge_faults]. *)
let ffc_ring p ~faults =
  let e = Option.get (Core.Embed.embed p ~faults) in
  let flags = Core.Necklace.mark_faulty_necklaces p faults in
  ((fun v -> flags.(v)), [ e.Core.Embed.cycle ])

let striped_rings ~d ~n ~k ~edge_faults =
  let streams =
    match edge_faults with
    | [] -> Core.Compose.disjoint_streams_upto ~d ~n ~k
    | _ ->
        List.filteri
          (fun i _ -> i < k)
          (Core.Edge_fault.surviving_disjoint_streams ~d ~n ~faults:edge_faults)
  in
  ((fun _ -> false), List.map Core.Stream.to_nodes streams)

(* One timed request per executor, on rings built beforehand: the
   timing and allocation figures are the executor's alone. *)
let netsim ?(edge_faults = []) ~p (faulty, rings) spec =
  Jrec.time_gc (fun () ->
      Oracles.Collective_reference.run ~edge_faults ~p ~faulty ~rings spec)

let fastpath ?(edge_faults = []) ~p (faulty, rings) spec =
  Jrec.time_gc (fun () -> Collective.Fastpath.run ~edge_faults ~p ~faulty ~rings spec)

(* Chapter-2 side: the FFC-embedded ring under seeded random node
   faults, both engines on every point. *)
let ffc_side ~d ~n ~ranks ~chunk_words ~fault_counts ~enforce =
  let p = Core.Word.params ~d ~n in
  Printf.printf " FFC ring of B(%d,%d) (%d nodes), ranks %d, chunk %d words\n" d n
    p.Core.Word.size ranks chunk_words;
  List.iter
    (fun f ->
      let rng = Core.Rng.create 0x5eed in
      let faults = Core.Rng.sample_distinct rng ~k:f ~bound:p.Core.Word.size in
      let rings = ffc_ring p ~faults in
      List.iter
        (fun op ->
          let spec =
            { Core.Collective_exec.op; ranks; chunk_words; bidirectional = false }
          in
          let r, g = netsim ~p rings spec in
          check_verified ~what:(Printf.sprintf "ffc f=%d" f) r;
          show ~engine:(Printf.sprintf "ffc-ring f=%d" f) ~op r g;
          row ~engine:"ffc-ring" ~d ~n ~f ~op r g;
          let rf, gf = fastpath ~p rings spec in
          check_verified ~what:(Printf.sprintf "ffc fastpath f=%d" f) rf;
          check_agreement ~what:(Printf.sprintf "ffc f=%d" f) r rf;
          show ~engine:(Printf.sprintf "ffc-ring fastpath f=%d" f) ~op rf gf;
          row ~engine:"ffc-ring fastpath" ~d ~n ~f ~op rf gf;
          if op = Core.Collective_schedule.Allreduce then
            speedup ~what:(Printf.sprintf "ffc f=%d" f) ~enforce g gf)
        ops)
    fault_counts

(* Chapter-3 side: striping across k edge-disjoint rings, plus the
   bidirectional variant, plus link faults. *)
let striped_side ~d ~n ~ranks ~chunk_words ~enforce =
  let k = Core.Psi.psi d in
  let p = Core.Word.params ~d ~n in
  Printf.printf
    " striped rings of B(%d,%d) (%d nodes), psi(%d) = %d, ranks %d, chunk %d words\n"
    d n p.Core.Word.size d k ranks chunk_words;
  let spec ?(bidirectional = false) op =
    { Core.Collective_exec.op; ranks; chunk_words; bidirectional }
  in
  (* Every netsim point paired with its fastpath sibling. *)
  let pair ?bidirectional ?(edge_faults = []) ~what ~label ~k ~f op =
    let rings = striped_rings ~d ~n ~k ~edge_faults in
    let r, g = netsim ~edge_faults ~p rings (spec ?bidirectional op) in
    check_verified ~what r;
    show ~engine:label ~op r g;
    row ~engine:label ~d ~n ~f ~op r g;
    let rf, gf = fastpath ~edge_faults ~p rings (spec ?bidirectional op) in
    check_verified ~what:(what ^ " fastpath") rf;
    check_agreement ~what rf r;
    show ~engine:(label ^ " fastpath") ~op rf gf;
    row ~engine:(label ^ " fastpath") ~d ~n ~f ~op rf gf;
    if op = Core.Collective_schedule.Allreduce then speedup ~what ~enforce g gf;
    r
  in
  (* k = 1 vs k = psi(d), fault-free: the striping contract. *)
  List.iter
    (fun op ->
      let r1 = pair ~what:"striped k=1" ~label:"striped x1" ~k:1 ~f:0 op in
      let rk =
        pair
          ~what:(Printf.sprintf "striped k=%d" k)
          ~label:(Printf.sprintf "striped x%d" k)
          ~k ~f:0 op
      in
      if op = Core.Collective_schedule.Allreduce then begin
        let gain =
          rk.Core.Collective_exec.bytes_per_step
          /. r1.Core.Collective_exec.bytes_per_step
        in
        Printf.printf "  striping gain x%.2f over one ring (floor %.2f)\n" gain
          (0.8 *. float_of_int k);
        if gain < 0.8 *. float_of_int k then
          failwith
            (Printf.sprintf
               "collective: striped allreduce gain x%.2f below the 0.8k floor"
               gain);
        ignore
          (pair ~bidirectional:true ~what:"striped bidir"
             ~label:(Printf.sprintf "striped x%d bidir" k)
             ~k ~f:0 op)
      end)
    ops;
  (* Link faults: kill one ring's edge and stripe over the survivors. *)
  let st = List.hd (Core.Compose.disjoint_streams_upto ~d ~n ~k:1) in
  let u = st.Core.Stream.start in
  let edge_faults = [ (u, st.Core.Stream.succ u) ] in
  let r =
    pair ~edge_faults ~what:"striped survivors" ~label:"striped survivors" ~k
      ~f:1 Core.Collective_schedule.Allreduce
  in
  if r.Core.Collective_exec.rings <> k - 1 then
    failwith "collective: one link fault should kill exactly one ring"

(* The at-scale fastpath rows: instances the netsim engine cannot touch
   in CI time, with their bytes/second figures.  The smoke lane runs a
   full B(2,16) bidirectional allreduce on every PR; full mode adds the
   B(2,22) (4.2M-node) FFC rows for the nightly artifact. *)
let fastpath_scale ~d ~n ~ranks ~chunk_words ~bidirectional ~fault_counts =
  let p = Core.Word.params ~d ~n in
  Printf.printf
    " fastpath at scale: FFC ring of B(%d,%d) (%d nodes), ranks %d, chunk %d words%s\n"
    d n p.Core.Word.size ranks chunk_words
    (if bidirectional then ", bidirectional" else "");
  let op = Core.Collective_schedule.Allreduce in
  List.iter
    (fun f ->
      let rng = Core.Rng.create 0x5eed in
      let faults = Core.Rng.sample_distinct rng ~k:f ~bound:p.Core.Word.size in
      let r, g =
        fastpath ~p (ffc_ring p ~faults)
          { Core.Collective_exec.op; ranks; chunk_words; bidirectional }
      in
      check_verified ~what:(Printf.sprintf "fastpath scale f=%d" f) r;
      let label =
        if bidirectional then "ffc-ring bidir fastpath" else "ffc-ring fastpath"
      in
      show ~engine:(Printf.sprintf "%s f=%d" label f) ~op r g;
      Printf.printf "    bytes/second %.3e (8 x %d wire words / %.2fs)\n"
        (bytes_per_s r g) r.Core.Collective_exec.wire_words g.Jrec.wall_s;
      row ~engine:label ~d ~n ~f ~op r g)
    fault_counts

let run ?(json = false) ?(smoke = false) () =
  print_endline (String.make 78 '-');
  print_endline
    "COLLECTIVE - ring reduce-scatter / all-gather / allreduce over embedded rings";
  print_endline (String.make 78 '-');
  if smoke then begin
    ffc_side ~d:2 ~n:10 ~ranks:16 ~chunk_words:4 ~fault_counts:[ 0; 2 ]
      ~enforce:false;
    striped_side ~d:4 ~n:5 ~ranks:16 ~chunk_words:4 ~enforce:false;
    fastpath_scale ~d:2 ~n:16 ~ranks:64 ~chunk_words:8 ~bidirectional:true
      ~fault_counts:[ 0 ]
  end
  else begin
    ffc_side ~d:2 ~n:16 ~ranks:64 ~chunk_words:8 ~fault_counts:[ 0; 8 ]
      ~enforce:true;
    striped_side ~d:4 ~n:8 ~ranks:64 ~chunk_words:8 ~enforce:true;
    fastpath_scale ~d:2 ~n:16 ~ranks:64 ~chunk_words:8 ~bidirectional:true
      ~fault_counts:[ 0 ];
    fastpath_scale ~d:2 ~n:22 ~ranks:64 ~chunk_words:1024 ~bidirectional:false
      ~fault_counts:[ 0; 8 ]
  end;
  print_newline ();
  if json then Jrec.write "BENCH_collective.json"
