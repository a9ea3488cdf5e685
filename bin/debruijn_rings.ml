(* debruijn-rings: command-line front end to the library.

   Subcommands:
     ffc       fault-free ring under node failures (Chapter 2)
     edge      Hamiltonian ring under link failures (Chapter 3)
     dhc       streaming Chapter-3 engine: rings and edge-fault campaigns
     disjoint  edge-disjoint Hamiltonian rings
     collective ring reduce-scatter / all-gather / allreduce over embedded rings
     count     necklace counts (Chapter 4)
     psi       the tolerance functions psi / phi / MAX
     butterfly fault-free ring in a butterfly network (section 3.4)   *)

open Cmdliner

let d_arg =
  Arg.(required & opt (some int) None & info [ "d" ] ~docv:"D" ~doc:"Alphabet size (degree).")

let n_arg =
  Arg.(required & opt (some int) None & info [ "n" ] ~docv:"N" ~doc:"Word length; the network has $(b,d^n) nodes.")

(* An invalid argument that cmdliner cannot reject, because it depends
   on (d, n) or comes back from the library: one error line and exit
   code 2. *)
let die fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("error: " ^ msg);
      exit 2)
    fmt

(* An integer of at least [lo] (domain and trial counts, the psi
   argument); anything else is a usage error. *)
let int_from lo =
  let expected =
    if lo = 1 then "a positive integer" else Printf.sprintf "an integer >= %d" lo
  in
  let parse s =
    match int_of_string_opt s with
    | Some k when k >= lo -> Ok k
    | _ -> Error (`Msg (Printf.sprintf "invalid value '%s', expected %s" s expected))
  in
  Arg.conv ~docv:"K" (parse, Format.pp_print_int)

let positive = int_from 1

(* B(d,n), checked where a command first uses it. *)
let params d n =
  match Core.Word.params ~d ~n with
  | p -> p
  | exception Invalid_argument msg -> die "%s" msg

(* The Chapter-3 constructions (shift cycles, the butterfly) also need
   n >= 2. *)
let chapter3_params d n =
  if n < 2 then die "n = %d: the Chapter-3 constructions need n >= 2" n;
  params d n

let words_conv p s =
  match Core.Word.of_string p s with
  | w -> w
  | exception _ ->
      die "bad node %S (expected %d digits < %d)" s p.Core.Word.n p.Core.Word.d

let render p ring =
  String.concat " " (List.map (Core.Word.to_string p) (Array.to_list ring))

let ffc_cmd =
  let faults =
    Arg.(value & pos_all string [] & info [] ~docv:"FAULT" ~doc:"Faulty nodes as digit strings, e.g. 020 112.")
  in
  let run d n fault_strs distributed domains trace campaign churn events trials seed fcounts =
    let p = params d n in
    (* churn targets start at 1 fault, campaign fault counts at 0 *)
    let lo = if churn then 1 else 0 in
    if churn || campaign then
      Option.iter
        (List.iter (fun f ->
             if f < lo || f > p.Core.Word.size then
               die "fault count %d outside [%d, %d]" f lo p.Core.Word.size))
        fcounts;
    (* The library refuses a B(d,n) past its 32-bit node tables with
       Invalid_argument before allocating; like [collective], report it
       as one error line.  Each mode computes before it prints, so that
       line is all the output. *)
    try
    if churn then begin
      let points =
        Core.Ffc_campaign.churn ~domains ~trials ~seed ?targets:fcounts ~events ~d ~n ()
      in
      Printf.printf
        "# churn campaign on B(%d,%d): %d trials x %d events per target, one live engine per domain\n"
        d n trials events;
      Printf.printf
        "# target  faults  repairs  patched  recomp  unchg  errors  mean-ring  min-ring  live-f\n";
      List.iter
        (fun (cp : Core.Ffc_campaign.churn_point) ->
          Printf.printf "%8d  %6d  %7d  %7d  %6d  %5d  %6d  %9.1f  %8d  %6.1f\n"
            cp.Core.Ffc_campaign.target_f cp.Core.Ffc_campaign.cfaults
            cp.Core.Ffc_campaign.crepairs cp.Core.Ffc_campaign.patched
            cp.Core.Ffc_campaign.recomputed cp.Core.Ffc_campaign.cunchanged
            cp.Core.Ffc_campaign.cerrors cp.Core.Ffc_campaign.mean_ring_length
            cp.Core.Ffc_campaign.min_ring_length
            cp.Core.Ffc_campaign.mean_live_faults)
        points
    end
    else if campaign then begin
      let points = Core.Ffc_campaign.run ~domains ~trials ~seed ?fs:fcounts ~d ~n () in
      Printf.printf
        "# node-fault campaign on B(%d,%d): %d trials per point, one workspace per domain\n"
        d n trials;
      Printf.printf
        "#   f  embedded  verified     bound  mean-|B*|  mean-ring  mean-ecc  min-ring\n";
      List.iter
        (fun (pt : Core.Ffc_campaign.point) ->
          let bound =
            if pt.Core.Ffc_campaign.bound_applicable = 0 then "-"
            else
              Printf.sprintf "%d/%d" pt.Core.Ffc_campaign.bound_ok
                pt.Core.Ffc_campaign.bound_applicable
          in
          Printf.printf "%5d  %4d/%-4d  %8d  %8s  %9.1f  %9.1f  %8.2f  %8d\n"
            pt.Core.Ffc_campaign.f pt.Core.Ffc_campaign.embedded
            pt.Core.Ffc_campaign.trials pt.Core.Ffc_campaign.verified bound
            pt.Core.Ffc_campaign.mean_bstar_size
            pt.Core.Ffc_campaign.mean_ring_length pt.Core.Ffc_campaign.mean_ecc
            pt.Core.Ffc_campaign.min_ring_length)
        points
    end
    else begin
    let faults = List.map (words_conv p) fault_strs in
    let result =
      if distributed then
        Option.map
          (fun (ring, stats) ->
            Printf.printf "# distributed run: %d rounds, %d messages\n"
              stats.Core.Distributed.total_rounds stats.Core.Distributed.messages;
            if trace then
              List.iter
                (fun (phase, t) ->
                  Printf.printf "# %-10s  %4s %8s %9s %10s\n" phase "rnd" "active"
                    "delivered" "wall";
                  Array.iteri
                    (fun r (m : Core.Simulator.round_metrics) ->
                      Printf.printf "# %-10s  %4d %8d %9d %8.1fus\n" "" r m.active
                        m.delivered_in_round (m.wall_ns /. 1e3))
                    t)
                stats.Core.Distributed.phase_traces;
            ring)
          (Core.fault_free_ring_distributed ~d ~n ~faults)
      else Core.fault_free_ring ~d ~n ~faults
    in
    match result with
    | None ->
        prerr_endline "no fault-free ring: every necklace is faulty";
        exit 1
    | Some ring ->
        Printf.printf "# ring length %d of %d nodes (guarantee %d for f = %d)\n"
          (Array.length ring) p.Core.Word.size
          (Core.ring_length_guarantee ~d ~n ~f:(List.length faults))
          (List.length faults);
        print_endline (render p ring)
    end
    with Invalid_argument msg -> die "%s" msg
  in
  let distributed =
    Arg.(value & flag & info [ "distributed" ] ~doc:"Run the network-level protocol on the simulator.")
  in
  let domains =
    Arg.(value & opt positive 1 & info [ "domains" ] ~docv:"K" ~doc:"Run the trials of $(b,--campaign) or $(b,--churn) on $(docv) OCaml domains (statistics unchanged).")
  in
  let trace =
    Arg.(value & flag & info [ "trace" ] ~doc:"Print per-phase round-by-round metrics (with --distributed).")
  in
  let campaign =
    Arg.(value & flag & info [ "campaign" ] ~doc:"Run a seeded randomized node-fault campaign instead of embedding a given fault set.")
  in
  let churn =
    Arg.(value & flag & info [ "churn" ] ~doc:"Run a seeded fault/repair churn campaign through the incremental live engine.")
  in
  let events =
    Arg.(value & opt positive 100 & info [ "events" ] ~docv:"E" ~doc:"Events per trial (with --churn).")
  in
  let trials =
    Arg.(value & opt positive 20 & info [ "trials" ] ~docv:"T" ~doc:"Trials per fault count (with --campaign or --churn).")
  in
  let seed =
    Arg.(value & opt int 0x5eed & info [ "seed" ] ~docv:"S" ~doc:"Campaign seed; trial outcomes depend only on (seed, f, trial).")
  in
  let fcounts =
    Arg.(value & opt (some (list int)) None & info [ "fcounts" ] ~docv:"F,..." ~doc:"Comma-separated fault counts to sweep with --campaign (equilibrium targets with --churn); default 1,5,10,30,50 clipped to the node count.")
  in
  Cmd.v
    (Cmd.info "ffc" ~doc:"Fault-free ring under node failures (Chapter 2).")
    Term.(const run $ d_arg $ n_arg $ faults $ distributed $ domains $ trace
          $ campaign $ churn $ events $ trials $ seed $ fcounts)

let parse_edge p s =
  match String.split_on_char '-' s with
  | [ u; v ] ->
      let u = words_conv p u in
      let v = words_conv p v in
      if Core.Word.suffix p u <> Core.Word.prefix p v then
        die "bad edge %S (not a link of B(%d,%d))" s p.Core.Word.d p.Core.Word.n;
      (u, v)
  | _ -> die "bad edge %S (expected U-V)" s

let edge_cmd =
  let faults =
    Arg.(value & pos_all string [] & info [] ~docv:"EDGE" ~doc:"Faulty links as U-V, e.g. 01-12.")
  in
  let run d n fault_strs =
    let p = chapter3_params d n in
    let faults = List.map (parse_edge p) fault_strs in
    Printf.printf "# tolerance MAX(psi-1, phi) = %d\n" (Core.edge_fault_tolerance d);
    match Core.hamiltonian_ring_avoiding_edge_faults ~d ~n ~faults with
    | None ->
        prerr_endline "no fault-free Hamiltonian ring found";
        exit 1
    | Some ring -> print_endline (render p ring)
  in
  Cmd.v
    (Cmd.info "edge" ~doc:"Hamiltonian ring under link failures (Chapter 3).")
    Term.(const run $ d_arg $ n_arg $ faults)

let dhc_cmd =
  let faults =
    Arg.(value & opt_all string [] & info [ "fault" ] ~docv:"U-V" ~doc:"A faulty link as U-V, e.g. 01-12 (repeatable).")
  in
  let campaign =
    Arg.(value & flag & info [ "campaign" ] ~doc:"Run a randomized edge-fault campaign sweeping f from 0 past MAX(psi-1, phi).")
  in
  let trials =
    Arg.(value & opt positive 20 & info [ "trials" ] ~docv:"T" ~doc:"Trials per fault count (with --campaign).")
  in
  let fmax =
    Arg.(value & opt (some (int_from 0)) None & info [ "fmax" ] ~docv:"F" ~doc:"Largest fault count to sweep (default 2 MAX + 2).")
  in
  let seed =
    Arg.(value & opt int 0x5eed & info [ "seed" ] ~docv:"S" ~doc:"Campaign PRNG seed.")
  in
  let domains =
    Arg.(value & opt positive 1 & info [ "domains" ] ~docv:"K" ~doc:"Parallelize campaign trials on $(docv) OCaml domains (statistics unchanged).")
  in
  let run d n fault_strs campaign trials fmax seed domains =
    let p = chapter3_params d n in
    if campaign then begin
      Printf.printf "# campaign on B(%d,%d): %d trials per point, tolerance MAX(psi-1, phi) = %d\n"
        d n trials (Core.Psi.max_tolerance d);
      Printf.printf "#   f  success  construction  disjoint  masked  mean-ring-length\n";
      List.iter
        (fun (pt : Core.Campaign.point) ->
          Printf.printf "%5d  %3d/%-3d  %12d  %8d  %6d  %16.1f\n" pt.Core.Campaign.f
            pt.Core.Campaign.successes pt.Core.Campaign.trials
            pt.Core.Campaign.via_construction pt.Core.Campaign.via_disjoint
            pt.Core.Campaign.masked_fallbacks pt.Core.Campaign.mean_ring_length)
        (Core.Campaign.run ~domains ~trials ~seed ?fmax ~d ~n ())
    end
    else begin
      let faults = List.map (parse_edge p) fault_strs in
      match Core.Edge_fault.best_hc_avoiding_stream ~d ~n ~faults with
      | None ->
          prerr_endline "no fault-free Hamiltonian ring found";
          exit 1
      | Some st ->
          let route =
            match Core.Edge_fault.hc_avoiding_stream ~d ~n ~faults with
            | Some _ -> "construction"
            | None -> "psi-family"
          in
          let fs = Core.Edge_fault.Faults.make p faults in
          let ok =
            Core.Stream.is_hamiltonian st
            && Core.Stream.avoids st (Core.Edge_fault.Faults.mem fs)
          in
          Printf.printf
            "# streaming ring of B(%d,%d): %d nodes via %s, verified fault-free hamiltonian %b\n"
            d n st.Core.Stream.length route ok;
          if p.Core.Word.size <= 4096 then
            print_endline (render p (Core.Stream.to_nodes st))
    end
  in
  Cmd.v
    (Cmd.info "dhc" ~doc:"Streaming Chapter-3 engine: O(n)-memory fault-avoiding rings and edge-fault campaigns.")
    Term.(const run $ d_arg $ n_arg $ faults $ campaign $ trials $ fmax $ seed $ domains)

let disjoint_cmd =
  let run d n =
    let p = chapter3_params d n in
    let rings = Core.disjoint_rings ~d ~n in
    Printf.printf "# %d edge-disjoint Hamiltonian rings (psi(%d) = %d)\n"
      (List.length rings) d (Core.Psi.psi d);
    List.iter (fun r -> print_endline (render p r)) rings
  in
  Cmd.v
    (Cmd.info "disjoint" ~doc:"Edge-disjoint Hamiltonian rings of B(d,n).")
    Term.(const run $ d_arg $ n_arg)

let count_cmd =
  let length =
    Arg.(value & opt (some int) None & info [ "length" ] ~docv:"T" ~doc:"Restrict to necklaces of length $(docv).")
  in
  let weight =
    Arg.(value & opt (some int) None & info [ "weight" ] ~docv:"K" ~doc:"Restrict to nodes of weight $(docv).")
  in
  let run d n length weight =
    ignore (params d n);
    let c =
      match (length, weight) with
      | None, None -> Core.Count.total ~d ~n
      | Some t, None -> Core.Count.of_length ~d ~n ~t
      | None, Some k -> Core.Count.of_weight ~d ~n ~k
      | Some t, Some k -> Core.Count.of_weight_and_length ~d ~n ~k ~t
    in
    print_int c;
    print_newline ()
  in
  Cmd.v
    (Cmd.info "count" ~doc:"Necklace counts (Chapter 4).")
    Term.(const run $ d_arg $ n_arg $ length $ weight)

let psi_cmd =
  let d_pos = Arg.(required & pos 0 (some (int_from 2)) None & info [] ~docv:"D") in
  let run d =
    Printf.printf "psi(%d) = %d\nphi(%d) = %d\nMAX(psi-1, phi) = %d\n" d (Core.Psi.psi d) d
      (Core.Psi.phi_bound d) (Core.Psi.max_tolerance d)
  in
  Cmd.v (Cmd.info "psi" ~doc:"Tolerance functions of Chapter 3.") Term.(const run $ d_pos)

let butterfly_cmd =
  let faults =
    Arg.(value & pos_all string [] & info [] ~docv:"EDGE"
           ~doc:"Faulty butterfly links as L,COL-L,COL e.g. 0,010-1,110.")
  in
  let run d n fault_strs =
    let p = chapter3_params d n in
    let bf = Core.Butterfly_graph.create ~d ~n in
    let parse s =
      let node part =
        match String.split_on_char ',' part with
        | [ l; c ] -> (
            match int_of_string_opt l with
            | Some level when level >= 0 && level < n ->
                Core.Butterfly_graph.encode bf ~level ~column:(words_conv p c)
            | _ -> die "bad butterfly level %S (expected 0..%d)" l (n - 1))
        | _ -> die "bad butterfly node %S (expected L,COL)" part
      in
      match String.split_on_char '-' s with
      | [ u; v ] ->
          let u = node u in
          let v = node v in
          if not (List.mem v (Core.Butterfly_graph.successors bf u)) then
            die "bad edge %S (not a link of F(%d,%d))" s d n;
          (u, v)
      | _ -> die "bad edge %S (expected L,COL-L,COL)" s
    in
    let faults = List.map parse fault_strs in
    match Core.butterfly_ring_avoiding_edge_faults ~d ~n ~faults with
    | None ->
        prerr_endline "no Hamiltonian ring (is gcd(d,n) = 1 and f within tolerance?)";
        exit 1
    | Some ring ->
        Printf.printf "# Hamiltonian ring of F(%d,%d), %d nodes\n" d n (Array.length ring);
        print_endline
          (String.concat " " (List.map (Core.Butterfly_graph.to_string bf) (Array.to_list ring)))
  in
  Cmd.v
    (Cmd.info "butterfly" ~doc:"Fault-free ring in a butterfly network (section 3.4).")
    Term.(const run $ d_arg $ n_arg $ faults)

let collective_cmd =
  let op_arg =
    Arg.(value
         & opt (enum Core.Collective_schedule.op_names) Core.Collective_schedule.Allreduce
         & info [ "op" ] ~docv:"OP"
             ~doc:"Collective operation: reduce-scatter (rs), all-gather (ag) or allreduce (ar).")
  in
  let rings =
    Arg.(value & opt int 0 & info [ "rings" ] ~docv:"K"
           ~doc:"Stripe the payload across $(docv) edge-disjoint Hamiltonian rings (Chapter 3); 0 (the default) runs on the FFC-embedded ring (Chapter 2).")
  in
  let ranks =
    Arg.(value & opt int 8 & info [ "ranks" ] ~docv:"R"
           ~doc:"Logical participants per ring (an error when above the ring length unless $(b,--clamp-ranks) is passed).")
  in
  let clamp_ranks =
    Arg.(value & flag & info [ "clamp-ranks" ]
           ~doc:"Clamp $(b,--ranks) to the ring length instead of erroring when it exceeds it.")
  in
  let chunk_words =
    Arg.(value & opt int 4 & info [ "chunk-words" ] ~docv:"W" ~doc:"Words per message chunk.")
  in
  let faults =
    Arg.(value & opt int 0 & info [ "faults" ] ~docv:"F"
           ~doc:"Sample $(docv) random faults from the seed: nodes in FFC mode, links in striped mode.")
  in
  let seed =
    Arg.(value & opt int 0x5eed & info [ "seed" ] ~docv:"S" ~doc:"Fault-sampling seed.")
  in
  let bidir =
    Arg.(value & flag & info [ "bidir" ] ~doc:"Also drive every ring in the reverse direction with its own payload stripe.")
  in
  let run d n op rings_k ranks chunk_words faults seed bidir clamp_ranks =
    let p = params d n in
    let rng = Core.Rng.create seed in
    let op_name = Core.Collective_schedule.op_to_string op in
    (* The run comes first: the header is printed with its report, so a
       run that fails prints none. *)
    let header, report =
      try
        if rings_k = 0 then begin
          let fault_nodes =
            Core.Rng.sample_distinct rng ~k:faults ~bound:p.Core.Word.size
          in
          let report =
            Core.collective_over_fault_free_ring ~bidirectional:bidir ~clamp_ranks
              ~d ~n ~faults:fault_nodes ~op ~ranks ~chunk_words ()
          in
          ( Printf.sprintf "# %s over the FFC ring of B(%d,%d), %d node fault(s)"
              op_name d n faults,
            report )
        end
        else begin
          let rec sample k acc =
            if k = 0 then List.rev acc
            else
              let u = Core.Rng.int rng p.Core.Word.size in
              let succs = Core.Word.successors p u in
              let v = List.nth succs (Core.Rng.int rng (List.length succs)) in
              sample (k - 1) ((u, v) :: acc)
          in
          let edge_faults = sample faults [] in
          let report =
            Core.striped_collective_over_disjoint_rings ~bidirectional:bidir
              ~clamp_ranks ~edge_faults ~d ~n ~k:rings_k ~op ~ranks ~chunk_words ()
          in
          ( Printf.sprintf
              "# %s striped over %d edge-disjoint ring(s) of B(%d,%d), %d link fault(s)"
              op_name rings_k d n faults,
            report )
        end
      with Invalid_argument msg -> die "%s" msg
    in
    match report with
    | None ->
        prerr_endline "no ring survives the fault set";
        exit 1
    | Some r ->
        print_endline header;
        Printf.printf "# rings %d  ranks %d  phases %d  rounds %d\n"
          r.Core.Collective_exec.rings r.Core.Collective_exec.ranks
          r.Core.Collective_exec.phases r.Core.Collective_exec.rounds;
        Printf.printf
          "# delivered %d  wire-words %d  payload-words %d  max-link-load %d  max-port-load %d\n"
          r.Core.Collective_exec.delivered r.Core.Collective_exec.wire_words
          r.Core.Collective_exec.payload_words r.Core.Collective_exec.max_link_load
          r.Core.Collective_exec.max_port_load;
        Printf.printf "verified %b  checksum %d\n" r.Core.Collective_exec.verified
          r.Core.Collective_exec.checksum;
        if not r.Core.Collective_exec.verified then exit 1
  in
  Cmd.v
    (Cmd.info "collective"
       ~doc:"Ring collectives (reduce-scatter / all-gather / allreduce) over embedded rings.")
    Term.(const run $ d_arg $ n_arg $ op_arg $ rings $ ranks $ chunk_words $ faults
          $ seed $ bidir $ clamp_ranks)

let route_cmd =
  let src = Arg.(required & pos 0 (some string) None & info [] ~docv:"SRC") in
  let dst = Arg.(required & pos 1 (some string) None & info [] ~docv:"DST") in
  let faults =
    Arg.(value & opt_all string [] & info [ "fault" ] ~docv:"NODE" ~doc:"A faulty node (repeatable).")
  in
  let run d n src dst fault_strs =
    let p = params d n in
    let conv = words_conv p in
    let faults = List.map conv fault_strs in
    match Core.route ~d ~n ~faults (conv src) (conv dst) with
    | None ->
        prerr_endline "no fault-free route (endpoint on a faulty necklace?)";
        exit 1
    | Some path ->
        Printf.printf "# %d hops (bound 2n = %d)\n" (List.length path - 1) (2 * n);
        print_endline (String.concat " -> " (List.map (Core.Word.to_string p) path))
  in
  Cmd.v
    (Cmd.info "route" ~doc:"Fault-free routing through faulty necklaces (Prop 2.2).")
    Term.(const run $ d_arg $ n_arg $ src $ dst $ faults)

let () =
  let doc = "fault-tolerant ring embedding in De Bruijn networks (Rowley & Bose)" in
  let info = Cmd.info "debruijn-rings" ~version:"1.0.0" ~doc in
  exit (Cmd.eval (Cmd.group info [ ffc_cmd; edge_cmd; dhc_cmd; disjoint_cmd; collective_cmd; count_cmd; psi_cmd; butterfly_cmd; route_cmd ]))
