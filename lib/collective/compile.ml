module W = Debruijn.Word
module Fa = Graphlib.Flatarr

module Fault_probe = struct
  (* [table = None] is the common fault-free case: [mem] must cost one
     branch, not a hash probe, because Exec runs it per topology edge. *)
  type t = { size : int; table : (int, unit) Hashtbl.t option }

  let make ~size ~bidirectional faults =
    let in_range v = v >= 0 && v < size in
    let live = List.filter (fun (u, v) -> in_range u && in_range v) faults in
    match live with
    | [] -> { size; table = None }
    | _ ->
        let h = Hashtbl.create ((2 * List.length live) + 1) in
        List.iter
          (fun (u, v) ->
            Hashtbl.replace h ((u * size) + v) ();
            if bidirectional then Hashtbl.replace h ((v * size) + u) ())
          live;
        { size; table = Some h }

  let mem t u v =
    match t.table with
    | None -> false
    | Some h -> Hashtbl.mem h ((u * t.size) + v)

  let is_empty t = match t.table with None -> true | Some _ -> false
end

let resolve_ranks ~what ~clamp_ranks ~ranks ~length =
  let resolved, clamped =
    if ranks > length then
      if clamp_ranks then (length, true)
      else
        invalid_arg
          (what ^ ": spec.ranks " ^ string_of_int ranks ^ " > ring length "
         ^ string_of_int length ^ " (pass ~clamp_ranks:true to clamp)")
    else (ranks, false)
  in
  if resolved < 2 then invalid_arg (what ^ ": ranks < 2");
  (resolved, clamped)

type t = {
  p : W.params;
  nrings : int;
  length : int;
  ranks : int;
  clamped : bool;
  cycles : int array array;
  bounds : int array;
  succ_rank : Fa.t;
  seg_len : Fa.t;
  seg_pref : Fa.t;
  bidirectional : bool;
  probe : Fault_probe.t;
}

let lower ~what ~clamp_ranks ~edge_faults ~bidirectional ~ranks ~chunk_words ~p
    ~faulty ~rings =
  (match rings with [] -> invalid_arg (what ^ ": no rings") | _ -> ());
  if chunk_words < 1 then invalid_arg (what ^ ": chunk_words < 1");
  let forward = Array.of_list rings in
  let length = Array.length forward.(0) in
  Array.iter
    (fun c ->
      if Array.length c <> length then
        invalid_arg (what ^ ": rings of unequal length"))
    forward;
  if length < 2 then invalid_arg (what ^ ": ring shorter than 2");
  let cycles =
    if bidirectional then
      Array.append forward
        (Array.map
           (fun c -> Array.init length (fun i -> c.(length - 1 - i)))
           forward)
    else forward
  in
  let nrings = Array.length cycles in
  let ranks, clamped = resolve_ranks ~what ~clamp_ranks ~ranks ~length in
  let bounds = Schedule.boundaries ~ranks ~length in
  let succ_rank = Fa.create ranks in
  let seg_len = Fa.create ranks in
  let seg_pref = Fa.create (ranks + 1) in
  for r = 0 to ranks - 1 do
    succ_rank.{r} <- (r + 1) mod ranks;
    seg_pref.{r} <- bounds.(r);
    let stop = if r = ranks - 1 then length else bounds.(r + 1) in
    seg_len.{r} <- stop - bounds.(r)
  done;
  seg_pref.{ranks} <- length;
  let probe = Fault_probe.make ~size:p.W.size ~bidirectional edge_faults in
  let visited = Fa.Byte.make p.W.size 0 in
  let adjacent u v =
    W.suffix p u = W.prefix p v
    || (bidirectional && W.suffix p v = W.prefix p u)
  in
  (* Earliest (round, src, ring) at which the simulator would attempt a
     send across a missing or faulted edge: the phase-0 chunk wave
     advances through every segment in lock-step, reaching segment
     offset h at round h, and an upstream bad edge always has a smaller
     offset than anything it blocks. *)
  let bad_round = ref max_int in
  let bad_src = ref 0 in
  let bad_dst = ref 0 in
  Array.iter
    (fun cycle ->
      Array.iter
        (fun v ->
          if v < 0 || v >= p.W.size then
            invalid_arg (what ^ ": ring node out of range");
          if faulty v then invalid_arg (what ^ ": ring touches a faulty node");
          if Fa.Byte.get visited v <> 0 then
            invalid_arg (what ^ ": ring revisits a node");
          Fa.Byte.set visited v 1)
        cycle;
      Array.iter (fun v -> Fa.Byte.set visited v 0) cycle)
    cycles;
  Array.iter
    (fun cycle ->
      let seg = ref 0 in
      for i = 0 to length - 1 do
        while !seg < ranks - 1 && i >= seg_pref.{!seg + 1} do
          incr seg
        done;
        let u = cycle.(i) and v = cycle.((i + 1) mod length) in
        if (not (adjacent u v)) || Fault_probe.mem probe u v then begin
          let h = i - seg_pref.{!seg} in
          if h < !bad_round || (h = !bad_round && u < !bad_src) then begin
            bad_round := h;
            bad_src := u;
            bad_dst := v
          end
        end
      done)
    cycles;
  if !bad_round < max_int then
    raise
      (Netsim.Simulator.Illegal_send
         { round = !bad_round; src = !bad_src; dst = !bad_dst });
  {
    p;
    nrings;
    length;
    ranks;
    clamped;
    cycles;
    bounds;
    succ_rank;
    seg_len;
    seg_pref;
    bidirectional;
    probe;
  }

let completion_rounds t ~phases =
  let ranks = t.ranks in
  (* T(x) = hops from rank 0's boundary to the boundary x segments
     later, extended periodically: any full lap of R segments is L. *)
  let tfun x =
    let q = if x >= 0 then x / ranks else -(((-x) + ranks - 1) / ranks) in
    let m = x - (q * ranks) in
    (q * t.length) + t.seg_pref.{m}
  in
  let worst = ref 0 in
  for r = 0 to ranks - 1 do
    (* A_r(phases-1) = T(r) - T(r - phases): the sum of the [phases]
       segment lengths feeding rank r's receives. *)
    let arrival = tfun r - tfun (r - phases) in
    if arrival > !worst then worst := arrival
  done;
  !worst + 1

(* Slots as in the interface.  The forward test needs no second
   division: (u / dⁿ⁻¹)·dⁿ + v − u·d = v − (u mod dⁿ⁻¹)·d, which lies
   in [0, d) iff suffix(u) = prefix(v).  Byte counters keep the table
   at d·dⁿ bytes (4 MB at B(4,10)); a slot already at [byte_max] keeps
   counting in [spill], so no number of rings can wrap a count. *)
let byte_max = 255

let max_edge_share t =
  if t.nrings = 1 then 1
  else begin
    let d = t.p.W.d and size = t.p.W.size in
    let top = size / d in
    let half = d * size in
    let counts = Fa.Byte.make (if t.bidirectional then 2 * half else half) 0 in
    let spill = Hashtbl.create 16 in
    let overflow s =
      let c =
        1 + Option.value (Hashtbl.find_opt spill s) ~default:byte_max
      in
      Hashtbl.replace spill s c;
      c
    in
    let length = t.length in
    let best = ref 1 in
    (for j = 0 to t.nrings - 1 do
       let cycle = t.cycles.(j) in
       for i = 0 to length - 1 do
         let u = cycle.(i) in
         let v = cycle.(if i = length - 1 then 0 else i + 1) in
         let fwd = ((u / top) * size) + v in
         let x = fwd - (u * d) in
         let s = if x >= 0 && x < d then fwd else half + ((v / top) * size) + u in
         let c = Fa.Byte.get counts s in
         let c =
           if c < byte_max then begin
             Fa.Byte.set counts s (c + 1);
             c + 1
           end
           else overflow s
         in
         if c > !best then best := c
       done
     done)
    [@lint.hot];
    !best
  end
