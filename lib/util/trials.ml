let rng ~seed ~f ~trial = Rng.split seed ((1_000_003 * f) + trial)

type 'a run = {
  outcome : 'a array;
  wall_s : float;
  minor_words : float;
  major_words : float;
}

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

let run ~domains ~trials f =
  let slot = Array.make trials None in
  let wall = Array.make trials 0. in
  let minor = Array.make trials 0. in
  let major = Array.make trials 0. in
  let k = max 1 (min domains trials) in
  let worker w =
    let i = ref w in
    while !i < trials do
      let _, _, j0 = Gc.counters () in
      let m0 = Gc.minor_words () in
      let t0 = (Unix.gettimeofday () [@lint.allow "R1 wall_s is a reported statistic, never branched on"]) in
      let o = f w !i in
      wall.(!i) <- (Unix.gettimeofday () [@lint.allow "R1 wall_s is a reported statistic, never branched on"]) -. t0;
      let m1 = Gc.minor_words () in
      let _, _, j1 = Gc.counters () in
      slot.(!i) <- Some o;
      minor.(!i) <- m1 -. m0;
      major.(!i) <- j1 -. j0;
      i := !i + k
    done
  in
  if k = 1 then worker 0
  else begin
    let all_started = barrier k and all_done = barrier k in
    List.init k (fun w ->
        Domain.spawn (fun () ->
            all_started ();
            Fun.protect ~finally:all_done (fun () -> worker w)))
    |> List.iter Domain.join
  end;
  let least a = Array.fold_left min infinity a in
  {
    outcome = Array.map Option.get slot;
    wall_s = Array.fold_left ( +. ) 0. wall;
    minor_words = least minor;
    major_words = least major;
  }
