module W = Debruijn.Word

type point = {
  f : int;
  trials : int;
  successes : int;
  via_construction : int;
  via_disjoint : int;
  masked_fallbacks : int;
  mean_ring_length : float;
  wall_s : float;
  minor_words_per_trial : float;
  major_words_per_trial : float;
}

(* Per-trial generators are substreams of (campaign seed, f, trial)
   alone — Util.Rng.split, the seeding scheme shared with
   Ffc.Campaign — so the per-trial fault samples, and hence every
   statistic except wall_s, are bit-identical at any ?domains. *)
let trial_rng ~seed ~f ~trial = Util.Rng.split seed ((1_000_003 * f) + trial)

(* Node masking materializes B* over all dⁿ nodes; past this size the
   fallback costs more than the datum is worth, so failures just score
   ring length 0. *)
let masking_size_limit = 65536

let run_trial ~d ~n ~f rng =
  let p = W.params ~d ~n in
  let codes = Util.Rng.sample_distinct rng ~k:f ~bound:(p.W.size * p.W.d) in
  let faults = List.map (W.edge_of_code p) codes in
  match Edge_fault.hc_avoiding_stream ~d ~n ~faults with
  | Some st -> (`Construction, st.Stream.length)
  | None -> (
      match Edge_fault.hc_avoiding_via_disjoint_stream ~d ~n ~faults with
      | Some st -> (`Disjoint, st.Stream.length)
      | None ->
          if p.W.size <= masking_size_limit then
            match Edge_fault.via_node_masking ~d ~n ~faults with
            | Some c -> (`Masked, Array.length c)
            | None -> (`Failed, 0)
          else (`Failed, 0))

(* A blocking barrier for [k] workers: none returns until all [k] have
   called it. *)
let barrier k =
  let m = Mutex.create () and c = Condition.create () and arrived = ref 0 in
  fun () ->
    Mutex.lock m;
    incr arrived;
    if !arrived = k then Condition.broadcast c
    else
      while !arrived < k do
        Condition.wait c m
      done;
    Mutex.unlock m

(* Every worker starts its first trial once all workers are up, and
   exits once all have finished, so no domain's start-up or exit falls
   inside another worker's trial (a trial is timed in its worker). *)
let map_trials ~domains ~trials f =
  if domains <= 1 then Array.init trials f
  else begin
    let out = Array.make trials (`Failed, 0) in
    let nworkers = min domains trials in
    let all_started = barrier nworkers and all_done = barrier nworkers in
    let workers =
      List.init nworkers (fun w ->
          Domain.spawn (fun () ->
              all_started ();
              (* a raising trial still reaches the exit barrier, so the
                 others are not left waiting and [Domain.join] re-raises *)
              Fun.protect ~finally:all_done (fun () ->
                  let i = ref w in
                  while !i < trials do
                    out.(!i) <- f !i;
                    i := !i + domains
                  done)))
    in
    List.iter Domain.join workers;
    out
  end

let point ~domains ~trials ~seed ~d ~n f =
  let wall = Array.make trials 0. in
  let minor = Array.make trials 0. in
  let major = Array.make trials 0. in
  (* Wall clock and GC counters are read around each trial, in the
     trial's own domain (map_trials runs a trial wholly in one worker),
     so no Domain.spawn/join falls in any window: minor words from
     Gc.minor_words, which is exact there (Gc.counters misreads them on
     OCaml 5.1), major words from Gc.counters, read outside that
     window. *)
  let outcomes =
    map_trials ~domains ~trials (fun trial ->
        let _, _, j0 = Gc.counters () in
        let m0 = Gc.minor_words () in
        let t0 = (Unix.gettimeofday () [@lint.allow "R1 wall_s is a reported statistic, never branched on"]) in
        let outcome = run_trial ~d ~n ~f (trial_rng ~seed ~f ~trial) in
        wall.(trial) <- (Unix.gettimeofday () [@lint.allow "R1 wall_s is a reported statistic, never branched on"]) -. t0;
        let m1 = Gc.minor_words () in
        let _, _, j1 = Gc.counters () in
        minor.(trial) <- m1 -. m0;
        major.(trial) <- j1 -. j0;
        outcome)
  in
  let wall_s = Array.fold_left ( +. ) 0. wall in
  let count o0 =
    Array.fold_left (fun acc (o, _) -> if o = o0 then acc + 1 else acc) 0 outcomes
  in
  let via_construction = count `Construction in
  let via_disjoint = count `Disjoint in
  let total_len = Array.fold_left (fun acc (_, l) -> acc + l) 0 outcomes in
  {
    f;
    trials;
    successes = via_construction + via_disjoint;
    via_construction;
    via_disjoint;
    masked_fallbacks = count `Masked;
    mean_ring_length = float_of_int total_len /. float_of_int trials;
    wall_s;
    (* Steady-state allocation: the minimum across trials, for the same
       reason as Ffc.Campaign — the runtime occasionally books a
       nondeterministic GC-internal burst into one trial's window, and
       the min is the stable "one more trial" figure. *)
    minor_words_per_trial = Array.fold_left min minor.(0) minor;
    major_words_per_trial = Array.fold_left min major.(0) major;
  }

let run ?(domains = 1) ?(trials = 20) ?(seed = 0x5eed) ?fmax ~d ~n () =
  if trials < 1 then invalid_arg "Campaign.run: trials < 1";
  if domains < 1 then invalid_arg "Campaign.run: domains < 1";
  let p = W.params ~d ~n in
  let fmax =
    match fmax with
    | Some f when f < 0 -> invalid_arg "Campaign.run: fmax < 0"
    | Some f -> min f (p.W.size * p.W.d)
    | None -> min ((2 * Psi.max_tolerance d) + 2) (p.W.size * p.W.d)
  in
  List.init (fmax + 1) (fun f -> point ~domains ~trials ~seed ~d ~n f)
