module W = Debruijn.Word

type point = {
  f : int;
  trials : int;
  embedded : int;
  verified : int;
  errors : int;
  bound_applicable : int;
  bound_ok : int;
  mean_bstar_size : float;
  mean_ring_length : float;
  mean_ecc : float;
  min_ring_length : int;
  max_ring_length : int;
  min_ecc : int;
  max_ecc : int;
  wall_s : float;
  minor_words_per_trial : float;
  major_words_per_trial : float;
}

type outcome = { osize : int; oring : int; oecc : int; over : bool; oerr : bool }

let nothing = { osize = 0; oring = 0; oecc = 0; over = false; oerr = false }

let length_bound p f =
  if f >= 0 && f <= p.W.d - 2 then Some (p.W.size - (p.W.n * f))
  else if p.W.d = 2 && f = 1 then Some (p.W.size - (p.W.n + 1))
  else None

let run_trial ~p ~ws ~seed ~f trial =
  let rng = Util.Trials.rng ~seed ~f ~trial in
  let faults = Util.Rng.sample_distinct rng ~k:f ~bound:p.W.size in
  (* R = 0…01, the thesis's distinguished node for Tables 2.1/2.2; when
     its necklace is faulty the embedding re-roots at the smallest live
     representative. *)
  match Embed.embed ~root_hint:1 ?ws p ~faults with
  | None -> nothing
  | Some e ->
      {
        osize = e.Embed.bstar.Bstar.size;
        oring = Embed.length e;
        oecc = e.Embed.bstar.Bstar.ecc;
        over = Embed.verify e;
        oerr = false;
      }
  | exception Pipeline_error.Error _ ->
      (* A pipeline-stage invariant fired (see Pipeline_error): the
         trial is recorded as failed instead of aborting the sweep. *)
      { nothing with oerr = true }

(* Trials stride over Util.Trials.run's workers, worker w on workspace
   [wss.(w)] ([None]: each trial's embed makes its own).  Outcomes land
   at their trial index, so every statistic but the wall/GC figures is
   independent of scheduling. *)
let point ~domains ~trials ~seed ~wss ~p f =
  let r =
    Util.Trials.run ~domains ~trials (fun w trial -> run_trial ~p ~ws:wss.(w) ~seed ~f trial)
  in
  let out = r.Util.Trials.outcome in
  let embedded = ref 0 and verified = ref 0 and errors = ref 0 in
  let sb = ref 0 and sr = ref 0 and se = ref 0 in
  let minr = ref max_int and maxr = ref 0 and mine = ref max_int and maxe = ref 0 in
  Array.iter
    (fun o ->
      if o.osize > 0 then incr embedded;
      if o.over then incr verified;
      if o.oerr then incr errors;
      sb := !sb + o.osize;
      sr := !sr + o.oring;
      se := !se + o.oecc;
      minr := min !minr o.oring;
      maxr := max !maxr o.oring;
      mine := min !mine o.oecc;
      maxe := max !maxe o.oecc)
    out;
  let bound = length_bound p f in
  let bound_ok =
    match bound with
    | None -> 0
    | Some b ->
        Array.fold_left (fun acc o -> if o.oring >= b then acc + 1 else acc) 0 out
  in
  let tf = float_of_int trials in
  {
    f;
    trials;
    embedded = !embedded;
    verified = !verified;
    errors = !errors;
    bound_applicable = (if Option.is_none bound then 0 else trials);
    bound_ok;
    mean_bstar_size = float_of_int !sb /. tf;
    mean_ring_length = float_of_int !sr /. tf;
    mean_ecc = float_of_int !se /. tf;
    min_ring_length = !minr;
    max_ring_length = !maxr;
    min_ecc = !mine;
    max_ecc = !maxe;
    wall_s = r.Util.Trials.wall_s;
    minor_words_per_trial = r.Util.Trials.minor_words;
    major_words_per_trial = r.Util.Trials.major_words;
  }

let default_fault_counts = [ 1; 5; 10; 30; 50 ]

(* One workspace per worker of Util.Trials.run, or none, so that each
   trial makes its own. *)
let workspaces ~reuse ~domains ~trials p =
  Array.init (min domains trials) (fun _ -> if reuse then Some (Workspace.create p) else None)

(* ------------------------------------------------------------------ *)
(* churn mode: Live under a fault/repair birth-death process            *)

type churn_point = {
  target_f : int;
  ctrials : int;
  events : int;
  cfaults : int;
  crepairs : int;
  patched : int;
  recomputed : int;
  cunchanged : int;
  cerrors : int;
  mean_ring_length : float;
  min_ring_length : int;
  mean_live_faults : float;
  cwall_s : float;
  median_event_s : float;
  max_event_s : float;
  minor_words_per_event : float;
  major_words_per_event : float;
}

type churn_out = {
  zring : int;
  zfend : int;
  zfev : int;
  zrev : int;
  zpat : int;
  zrec : int;
  zunc : int;
  zerr : bool;
}

let churn_nothing =
  { zring = 0; zfend = 0; zfev = 0; zrev = 0; zpat = 0; zrec = 0; zunc = 0;
    zerr = true }

(* One trial: [events] steps of a birth-death chain around [target]
   outstanding faults (fault with probability target/(target + f),
   repair of a uniform outstanding fault otherwise), driven through one
   [Live.t].  The event stream is a pure function of (seed, target,
   trial), so every outcome statistic is domain- and reuse-independent;
   only the per-event wall clocks in [ev_wall] are not. *)
let churn_trial ~p ~ws ~seed ~target ~events ~ev_wall trial =
  let rng = Util.Trials.rng ~seed ~f:target ~trial in
  let live = Live.create ~root_hint:1 ?ws p ~faults:[] in
  let active = ref (Array.make 16 0) in
  let f = ref 0 in
  let base = trial * events in
  match
    for e = 0 to events - 1 do
      let do_fault =
        !f < p.W.size && (!f = 0 || Util.Rng.int rng (target + !f) < target)
      in
      let ev =
        if do_fault then begin
          let v = ref (Util.Rng.int rng p.W.size) in
          while Live.is_faulty live !v do
            v := Util.Rng.int rng p.W.size
          done;
          if !f = Array.length !active then begin
            let b = Array.make (2 * !f) 0 in
            Array.blit !active 0 b 0 !f;
            active := b
          end;
          !active.(!f) <- !v;
          incr f;
          Live.Fault !v
        end
        else begin
          let i = Util.Rng.int rng !f in
          let v = !active.(i) in
          decr f;
          !active.(i) <- !active.(!f);
          Live.Repair v
        end
      in
      let t0 = (Unix.gettimeofday () [@lint.allow "R1 per-event latency is a reported statistic, never branched on"]) in
      (match Live.apply live ev with
      | Ok _ -> ()
      | Error _ ->
          (* unreachable: the chain only faults healthy nodes and only
             repairs outstanding ones — recorded, not crashed on *)
          Pipeline_error.raise_error ~stage:"Campaign"
            "churn event rejected by Live");
      ev_wall.(base + e) <- (Unix.gettimeofday () [@lint.allow "R1 per-event latency is a reported statistic, never branched on"]) -. t0
    done
  with
  | () ->
      let s = Live.stats live in
      {
        zring = Live.ring_length live;
        zfend = Live.fault_count live;
        zfev = s.Live.fault_events;
        zrev = s.Live.repair_events;
        zpat = s.Live.patched;
        zrec = s.Live.recomputed;
        zunc = s.Live.unchanged;
        zerr = false;
      }
  | exception Pipeline_error.Error _ -> churn_nothing

let churn_point ~domains ~trials ~seed ~events ~wss ~p target =
  let ev_wall = Array.make (trials * events) 0. in
  let r =
    Util.Trials.run ~domains ~trials (fun w trial ->
        churn_trial ~p ~ws:wss.(w) ~seed ~target ~events ~ev_wall trial)
  in
  let out = r.Util.Trials.outcome in
  let cfaults = ref 0 and crepairs = ref 0 and cerrors = ref 0 in
  let pat = ref 0 and rec_ = ref 0 and unc = ref 0 in
  let sring = ref 0 and sfend = ref 0 in
  let minr = ref max_int in
  Array.iter
    (fun o ->
      cfaults := !cfaults + o.zfev;
      crepairs := !crepairs + o.zrev;
      pat := !pat + o.zpat;
      rec_ := !rec_ + o.zrec;
      unc := !unc + o.zunc;
      if o.zerr then incr cerrors;
      sring := !sring + o.zring;
      sfend := !sfend + o.zfend;
      if o.zring < !minr then minr := o.zring)
    out;
  (* latency spread over the successful trials' events only (an aborted
     trial leaves untouched zero slots behind) *)
  let ok_trials = trials - !cerrors in
  let lat = Array.make (max 1 (ok_trials * events)) 0. in
  let li = ref 0 in
  Array.iteri
    (fun i o ->
      if not o.zerr then begin
        Array.blit ev_wall (i * events) lat (!li * events) events;
        incr li
      end)
    out;
  Array.sort Float.compare lat;
  let nlat = ok_trials * events in
  let median_event_s = if nlat = 0 then 0. else lat.(nlat / 2) in
  let max_event_s = if nlat = 0 then 0. else lat.(nlat - 1) in
  let per_event x = x /. float_of_int events in
  let tf = float_of_int trials in
  {
    target_f = target;
    ctrials = trials;
    events;
    cfaults = !cfaults;
    crepairs = !crepairs;
    patched = !pat;
    recomputed = !rec_;
    cunchanged = !unc;
    cerrors = !cerrors;
    mean_ring_length = float_of_int !sring /. tf;
    min_ring_length = !minr;
    mean_live_faults = float_of_int !sfend /. tf;
    cwall_s = r.Util.Trials.wall_s;
    median_event_s;
    max_event_s;
    minor_words_per_event = per_event r.Util.Trials.minor_words;
    major_words_per_event = per_event r.Util.Trials.major_words;
  }

let churn ?(domains = 1) ?(trials = 10) ?(seed = 0x5eed) ?targets
    ?(events = 100) ?(reuse = true) ~d ~n () =
  if trials < 1 then invalid_arg "Ffc.Campaign.churn: trials < 1";
  if domains < 1 then invalid_arg "Ffc.Campaign.churn: domains < 1";
  if events < 1 then invalid_arg "Ffc.Campaign.churn: events < 1";
  let p = W.params ~d ~n in
  let targets =
    match targets with
    | Some l ->
        List.iter
          (fun t ->
            if t < 1 || t > p.W.size then
              invalid_arg "Ffc.Campaign.churn: target out of range")
          l;
        l
    | None -> List.filter (fun t -> t <= p.W.size) default_fault_counts
  in
  let wss = workspaces ~reuse ~domains ~trials p in
  List.map (fun t -> churn_point ~domains ~trials ~seed ~events ~wss ~p t) targets

let run ?(domains = 1) ?(trials = 20) ?(seed = 0x5eed) ?fs ?(reuse = true) ~d
    ~n () =
  if trials < 1 then invalid_arg "Ffc.Campaign.run: trials < 1";
  if domains < 1 then invalid_arg "Ffc.Campaign.run: domains < 1";
  let p = W.params ~d ~n in
  let fs =
    match fs with
    | Some l ->
        List.iter
          (fun f ->
            if f < 0 || f > p.W.size then
              invalid_arg "Ffc.Campaign.run: fault count out of range")
          l;
        l
    | None -> List.filter (fun f -> f <= p.W.size) default_fault_counts
  in
  let wss = workspaces ~reuse ~domains ~trials p in
  List.map (fun f -> point ~domains ~trials ~seed ~wss ~p f) fs
