(* The repository benchmark: one seeded workload per process.

   Usage:
     suite.exe WORKLOAD --seed S [--seconds N] [--trace FILE] [--smoke]

   WORKLOAD is embed-batch, live-churn, ring-collectives or
   distributed-ffc (see README.md).  Inputs are generated from --seed
   before the measured loop, which runs for --seconds (default 20).
   Without --trace the run prints the end-to-end metrics; with --trace
   it records spans, writes them to FILE as Chrome trace-event JSON and
   prints the per-layer metrics instead.  --smoke runs tiny sizes with
   fixed loop counts and exits 1 on any failed check.

   Output: human-readable lines, then an [info] line carrying the
   fields that repeat exactly at a fixed seed, then — last — one JSON
   object {"correct", "attempted", "failed", "metrics"}.  Failed checks
   are listed on stderr; the exit code is 0 unless the arguments are
   bad (or --smoke saw a failure). *)

let workloads =
  [
    ("embed-batch", Wl_embed.run);
    ("live-churn", Wl_live.run);
    ("ring-collectives", Wl_collective.run);
    ("distributed-ffc", Wl_distributed.run);
  ]

let usage () =
  Printf.eprintf
    "usage: suite.exe WORKLOAD --seed S [--seconds N] [--trace FILE] [--smoke]\n\
     workloads: %s\n"
    (String.concat ", " (List.map fst workloads));
  exit 2

type args = {
  workload : string option;
  seed : int option;
  seconds : float;
  trace_file : string option;
  smoke : bool;
}

let rec parse acc = function
  | [] -> acc
  | "--seed" :: v :: rest -> (
      match int_of_string_opt v with
      | Some s -> parse { acc with seed = Some s } rest
      | None -> usage ())
  | "--seconds" :: v :: rest -> (
      match float_of_string_opt v with
      | Some s when s > 0. -> parse { acc with seconds = s } rest
      | _ -> usage ())
  | "--trace" :: v :: rest -> parse { acc with trace_file = Some v } rest
  | "--smoke" :: rest -> parse { acc with smoke = true } rest
  | w :: rest when Option.is_none acc.workload && not (String.starts_with ~prefix:"-" w) ->
      parse { acc with workload = Some w } rest
  | _ -> usage ()

let json_number x = if Float.is_finite x then Printf.sprintf "%.17g" x else "0"

let () =
  let a =
    parse
      { workload = None; seed = None; seconds = 20.; trace_file = None; smoke = false }
      (List.tl (Array.to_list Sys.argv))
  in
  let name, run =
    match a.workload with
    | Some w -> (
        match List.assoc_opt w workloads with Some f -> (w, f) | None -> usage ())
    | None -> usage ()
  in
  let seed = match a.seed with Some s -> s | None -> usage () in
  let trace = Option.map (fun _ -> Trace.create ()) a.trace_file in
  Printf.printf "suite %s seed=%d seconds=%g%s%s\n%!" name seed a.seconds
    (if a.smoke then " smoke" else "")
    (if Option.is_some trace then " traced" else "");
  let r = run { Workload.seed; seconds = a.seconds; smoke = a.smoke; trace } in
  let metrics = if Option.is_some trace then r.Workload.layers else r.Workload.e2e in
  let bad =
    List.filter_map
      (fun (m : Workload.metric) ->
        if Float.is_finite m.Workload.value then None
        else Some (Printf.sprintf "metric %s is not finite" m.Workload.name))
      metrics
  in
  let failures = r.Workload.failures @ bad in
  List.iter (fun l -> Printf.printf "  %s\n" l) r.Workload.notes;
  List.iter
    (fun (m : Workload.metric) ->
      Printf.printf "  %-32s %16.6f %s\n" m.Workload.name m.Workload.value m.Workload.unit_)
    metrics;
  List.iter (fun f -> Printf.eprintf "FAILED %s: %s\n" name f) failures;
  (match (trace, a.trace_file) with
  | Some t, Some path ->
      Trace.write_chrome t path;
      Printf.printf "  trace: %d spans written to %s\n" (List.length t.Trace.spans) path
  | _ -> ());
  let attempted = max 1 r.Workload.attempted in
  let nfailed = min attempted (r.Workload.failed + List.length bad) in
  Printf.printf "info {\"workload\":%S,\"seed\":%d,\"traced\":%b,\"exact\":{%s}}\n" name seed
    (Option.is_some trace)
    (String.concat ","
       (List.map (fun (k, v) -> Printf.sprintf "%S:%S" k v) r.Workload.exact));
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n%!"
    (nfailed = 0) attempted nfailed
    (String.concat ","
       (List.map
          (fun (m : Workload.metric) ->
            Printf.sprintf "%S:{\"value\":%s,\"unit\":%S}" m.Workload.name
              (json_number m.Workload.value) m.Workload.unit_)
          metrics));
  if a.smoke && nfailed > 0 then exit 1
