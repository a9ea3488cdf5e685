module W = Debruijn.Word
module Fa = Graphlib.Flatarr

let resolve_ranks ~what ~clamp_ranks ~ranks ~length =
  let resolved =
    if ranks > length then
      if clamp_ranks then length
      else
        invalid_arg
          (what ^ ": spec.ranks " ^ string_of_int ranks ^ " > ring length "
         ^ string_of_int length ^ " (pass ~clamp_ranks:true to clamp)")
    else ranks
  in
  if resolved < 2 then invalid_arg (what ^ ": ranks < 2");
  resolved

(* The code table's cells: one byte while the 2d codes and the mark 2d
   of a missing edge stay below the byte's absent mark 255 (d ≤ 127),
   one word beyond.  Read and written only through [cell] and
   [set_cell], which show a missing membership as [absent]. *)
type cells = Narrow of Fa.Byte.t | Wide of Fa.t

let absent = -1

let make_cells ~d n =
  if 2 * d < 255 then Narrow (Fa.Byte.make n 255) else Wide (Fa.make n absent)

let cell cells k =
  match cells with
  | Narrow b ->
      let c = Fa.Byte.get b k in
      if c = 255 then absent else c
  | Wide w -> w.{k}

let set_cell cells k c =
  match cells with Narrow b -> Fa.Byte.set b k c | Wide w -> w.{k} <- c

type t = {
  p : W.params;
  nrings : int;
  length : int;
  ranks : int;
  cycles : int array array;
  seg_len : Fa.t;
  seg_pref : Fa.t;
  codes : cells;
}

(* The rank segment holding ring position [i]: the last r < R with
   seg_pref.{r} ≤ i. *)
let seg_of seg_pref ~ranks i =
  let lo = ref 0 and hi = ref (ranks - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if seg_pref.{mid} <= i then lo := mid else hi := mid - 1
  done;
  !lo

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
  let ranks = resolve_ranks ~what ~clamp_ranks ~ranks ~length in
  let bounds = Schedule.boundaries ~ranks ~length in
  let seg_len = Fa.create ranks in
  let seg_pref = Fa.create (ranks + 1) in
  for r = 0 to ranks - 1 do
    seg_pref.{r} <- bounds.(r);
    let stop = if r = ranks - 1 then length else bounds.(r + 1) in
    seg_len.{r} <- stop - bounds.(r)
  done;
  seg_pref.{ranks} <- length;
  let d = p.W.d and size = p.W.size in
  let top = size / d in
  let bad = 2 * d in
  (* The code of u's out-edge to v, as in the interface, or [bad]. *)
  let code u v =
    let x = v - ((u mod top) * d) in
    if x >= 0 && x < d then x
    else if not bidirectional then bad
    else
      let y = u - ((v mod top) * d) in
      if y >= 0 && y < d then d + (v / top) else bad
  in
  (* Earliest (round, src, ring) at which the simulator would attempt a
     send across a missing or faulted edge: the phase-0 chunk wave
     advances through every segment in lock-step, reaching segment
     offset h at round h, and an upstream bad edge always has a smaller
     offset than anything it blocks. *)
  let bad_round = ref max_int and bad_src = ref 0 and bad_ring = ref 0 and bad_dst = ref 0 in
  let note ~ring ~pos u v =
    let h = pos - seg_pref.{seg_of seg_pref ~ranks pos} in
    if
      h < !bad_round
      || (h = !bad_round && (u < !bad_src || (u = !bad_src && ring < !bad_ring)))
    then begin
      bad_round := h;
      bad_src := u;
      bad_ring := ring;
      bad_dst := v
    end
  in
  let out_of_range = what ^ ": ring node out of range"
  and touches_faulty = what ^ ": ring touches a faulty node"
  and revisits = what ^ ": ring revisits a node" in
  let codes = make_cells ~d (size * nrings) in
  (* One pass per ring: writing u's cell is the revisit check, its code
     the adjacency check. *)
  (for j = 0 to nrings - 1 do
     let cycle = cycles.(j) in
     for i = 0 to length - 1 do
       let u = cycle.(i) in
       if u < 0 || u >= size then invalid_arg out_of_range;
       if faulty u then invalid_arg touches_faulty;
       let k = (u * nrings) + j in
       if cell codes k <> absent then invalid_arg revisits;
       let v = cycle.(if i = length - 1 then 0 else i + 1) in
       let c = code u v in
       if c = bad then note ~ring:j ~pos:i u v;
       set_cell codes k c
     done
   done)
  [@lint.hot];
  (* A faulted link u → v lies on ring j iff u's cell there holds its
     code; only then is u's ring position looked up. *)
  let faulted u v =
    let c = code u v in
    if c <> bad then
      for j = 0 to nrings - 1 do
        if cell codes ((u * nrings) + j) = c then begin
          let cycle = cycles.(j) in
          let i = ref 0 in
          while cycle.(!i) <> u do
            incr i
          done;
          note ~ring:j ~pos:!i u v
        end
      done
  in
  List.iter
    (fun (u, v) ->
      if u >= 0 && u < size && v >= 0 && v < size then begin
        faulted u v;
        if bidirectional then faulted v u
      end)
    edge_faults;
  if !bad_round < max_int then
    raise
      (Netsim.Simulator.Illegal_send
         { round = !bad_round; src = !bad_src; dst = !bad_dst });
  { p; nrings; length; ranks; cycles; seg_len; seg_pref; codes }

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

(* How many of the cells [row + a … row + k − 1] hold cell [row + a]'s
   code; 0 when that cell is absent. *)
let ties codes ~row ~k a =
  let c = cell codes (row + a) in
  if c = absent then 0
  else begin
    let n = ref 1 in
    for b = a + 1 to k - 1 do
      if cell codes (row + b) = c then incr n
    done;
    !n
  end

(* The number of present cells in [row … row + k − 1]. *)
let memberships codes ~row ~k =
  let n = ref 0 in
  for j = 0 to k - 1 do
    if cell codes (row + j) <> absent then incr n
  done;
  !n

let max_edge_share t =
  if t.nrings = 1 then 1
  else begin
    let k = t.nrings in
    let best = ref 1 in
    (for v = 0 to t.p.W.size - 1 do
       for a = 0 to k - 2 do
         let n = ties t.codes ~row:(v * k) ~k a in
         if n > !best then best := n
       done
     done)
    [@lint.hot];
    !best
  end

(* Peak sends by one node in one round, as in the interface.  Each
   membership sends [phases] times, at rounds h, h + len[s−1],
   h + len[s−1] + len[s−2], …: the phase-0 wave reaches offset h at
   round h, and each later phase waits for the previous one to cross
   the predecessor segments.  A node's load at a round is the number of
   its memberships sending then. *)

(* Uniform segments of [len] hops: the rounds are h + p·len, and
   |h − h'| < len makes two memberships collide iff h = h'.  The
   memberships at offset h sit at ring positions h, h + len, …, one per
   segment of every ring, and a ring never repeats a node, so a node's
   count in that group of k·R is its collision depth at offset h.  The
   groups are counted in one small open-addressing table, cleared
   after each, so the sweep needs no node-sized table; it stops once
   the depth reaches k, the most any node can have. *)
let port_load_uniform t ~len =
  let k = t.nrings and ranks = t.ranks in
  (* Slots: the least power of two above the group size, so a probe
     always meets a free slot. *)
  let bits = ref 1 in
  while 1 lsl !bits <= k * ranks do
    incr bits
  done;
  let slots = 1 lsl !bits and shift = Sys.int_size - !bits in
  let keys = Array.make slots (-1) and hits = Array.make slots 0 in
  let best = ref 1 and h = ref 0 and i = ref 0 in
  (while !best < k && !h < len do
     for j = 0 to k - 1 do
       let cycle = t.cycles.(j) in
       for s = 0 to ranks - 1 do
         let v = cycle.(!h + (s * len)) in
         (* Multiplicative hashing: the product's top bits. *)
         i := (v * 0x3E3779B97F4A7C15) lsr shift;
         while keys.(!i) >= 0 && keys.(!i) <> v do
           i := (!i + 1) land (slots - 1)
         done;
         if keys.(!i) < 0 then begin
           keys.(!i) <- v;
           hits.(!i) <- 1
         end
         else begin
           hits.(!i) <- hits.(!i) + 1;
           if hits.(!i) > !best then best := hits.(!i)
         end
       done
     done;
     Array.fill keys 0 slots (-1);
     incr h
   done)
  [@lint.hot];
  !best

(* Segments of ⌊L/R⌋ and ⌈L/R⌉ hops: each row runs a k-way merge of its
   memberships' send rounds, read from a node-major position table. *)
let port_load_merge t ~phases =
  let k = t.nrings and ranks = t.ranks in
  let seg_len = t.seg_len and seg_pref = t.seg_pref in
  (* Node-major ring positions, read only where a row has a code. *)
  let pos = Fa.create (t.p.W.size * k) in
  for j = 0 to k - 1 do
    let cycle = t.cycles.(j) in
    for i = 0 to t.length - 1 do
      pos.{(cycle.(i) * k) + j} <- i
    done
  done;
  let vals = Array.make k 0 and ptr = Array.make k 0 and nxt = Array.make k 0 in
  (* The deepest send-round collision among node v's [deg] memberships. *)
  let collisions v deg =
    let e = ref 0 in
    for j = 0 to k - 1 do
      if cell t.codes ((v * k) + j) <> absent then begin
        let i = pos.{(v * k) + j} in
        let s = seg_of seg_pref ~ranks i in
        vals.(!e) <- i - seg_pref.{s};
        nxt.(!e) <- (if s = 0 then ranks - 1 else s - 1);
        ptr.(!e) <- 0;
        incr e
      end
    done;
    let best = ref 1 and live = ref deg in
    while !live > 0 do
      let mn = ref max_int in
      for e = 0 to deg - 1 do
        if ptr.(e) < phases && vals.(e) < !mn then mn := vals.(e)
      done;
      let cnt = ref 0 in
      for e = 0 to deg - 1 do
        if ptr.(e) < phases && vals.(e) = !mn then begin
          incr cnt;
          ptr.(e) <- ptr.(e) + 1;
          if ptr.(e) = phases then decr live
          else begin
            vals.(e) <- vals.(e) + seg_len.{nxt.(e)};
            nxt.(e) <- (if nxt.(e) = 0 then ranks - 1 else nxt.(e) - 1)
          end
        end
      done;
      if !cnt > !best then best := !cnt
    done;
    !best
  in
  let best = ref 1 in
  (for v = 0 to t.p.W.size - 1 do
     let deg = memberships t.codes ~row:(v * k) ~k in
     (* A node's collision depth is at most its membership count. *)
     if deg > !best then best := max !best (collisions v deg)
   done)
  [@lint.hot];
  !best

let max_port_load t ~phases =
  if t.nrings = 1 then 1
  else
    (* [Schedule.boundaries] makes every segment ⌊L/R⌋ or ⌈L/R⌉ long. *)
    let len = t.seg_len.{0} in
    if t.length = len * t.ranks then port_load_uniform t ~len
    else port_load_merge t ~phases
