(* Benchmark harness: the pinned claims report and the gated
   measurement sections.

   Usage:
     dune exec bench/main.exe              run every section
     dune exec bench/main.exe -- claims    only the claims report
     (sections: claims scale dhc ffc-campaign live multicore collective)

   `claims` regenerates the thesis's tables, figures, worked examples
   and propositions, the design ablations and the open-problem probes,
   deterministically; `dune runtest` diffs its output against
   bench/claims.expected.

   Flags (consumed by the scale, dhc, ffc-campaign, live, multicore and
   collective sections):
     --json    also write the measurements to BENCH_scale.json /
               BENCH_dhc.json / BENCH_ffc_campaign.json / BENCH_live.json /
               BENCH_multicore.json / BENCH_collective.json
     --smoke   smallest instances only (CI smoke run) *)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let json = List.mem "--json" args in
  let smoke = List.mem "--smoke" args in
  let sections =
    [ ("claims", Claims.run); ("scale", Scale.run ~json ~smoke);
      ("dhc", Dhc_bench.run ~json ~smoke);
      ("ffc-campaign", Ffc_campaign.run ~json ~smoke);
      ("live", Live_bench.run ~json ~smoke);
      ("multicore", Multicore.run ~json ~smoke);
      ("collective", Collective_bench.run ~json ~smoke) ]
  in
  let requested =
    match List.filter (fun a -> not (String.starts_with ~prefix:"--" a)) args with
    | [] -> List.map fst sections
    | names -> names
  in
  List.iter
    (fun name ->
      match List.assoc_opt name sections with
      | Some f -> f ()
      | None ->
          Printf.eprintf "unknown section %S (available: %s)\n" name
            (String.concat " " (List.map fst sections));
          exit 1)
    requested
