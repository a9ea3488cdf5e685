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

(* Per-trial generators come from Util.Trials.rng, so every statistic
   but the wall/GC figures is the same at any ?domains. *)
let point ~domains ~trials ~seed ~d ~n f =
  let r =
    Util.Trials.run ~domains ~trials (fun _ trial ->
        run_trial ~d ~n ~f (Util.Trials.rng ~seed ~f ~trial))
  in
  let outcomes = r.Util.Trials.outcome in
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
    wall_s = r.Util.Trials.wall_s;
    minor_words_per_trial = r.Util.Trials.minor_words;
    major_words_per_trial = r.Util.Trials.major_words;
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
