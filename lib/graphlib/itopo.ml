type iter = int -> (int -> unit) -> unit

type bfs = { dist : Flatarr.t; order : Flatarr.t; count : int }

(* Reusable traversal scratch: one visited bitset plus full-size
   distance/order arrays, sized for a fixed node count [n].  The
   dist/order arrays are off-heap ({!Flatarr}) — optionally carved out
   of a caller-supplied arena — so a traversal's 2n-word working set
   never enters the GC.  Every traversal that accepts [?ws] resets
   exactly the state it uses (bitset clear is O(n/8); the dist fill is
   O(n)), so reuse across traversals is bit-identical to fresh
   allocation. *)
type ws = { wn : int; wvisited : Bitset.t; wdist : Flatarr.t; worder : Flatarr.t }

let ws_arena_words n = 2 * Flatarr.Arena.aligned_words n

let ws_create ?arena n =
  if n < 0 then invalid_arg "Itopo.ws_create: negative size";
  let dist, order =
    match arena with
    | None -> (Flatarr.make n (-1), Flatarr.make n 0)
    | Some a ->
        let d = Flatarr.Arena.carve a n in
        Flatarr.fill d (-1);
        (d, Flatarr.Arena.carve a n)
  in
  { wn = n; wvisited = Bitset.create n; wdist = dist; worder = order }

let ws_check ws n =
  if ws.wn <> n then invalid_arg "Itopo: workspace sized for a different n"

let keep_all = fun _ -> true

(* Physically-recognized empty predecessor iterator: when a caller knows
   every weak component is already strongly connected (so directed
   reachability covers it), passing [no_preds] lets the component sweeps
   walk [succs] alone instead of a wrapper that calls both closures. *)
let no_preds : iter = fun _ _ -> ()

let symmetric ~succs ~preds : iter =
  if preds == no_preds then succs
  else
    fun u f ->
      succs u f;
      preds u f

(* A BFS level is expanded in parallel in units of [chunk_size]
   frontier positions; below [par_threshold] frontier nodes the level
   runs sequentially even when [domains > 1] — with fewer than four
   chunks there is nothing to steal and the barrier (~1 µs per round
   plus worker wake-up) dominates.  The activation cutoff scales with
   the chunk size: overriding [?chunk] moves it in lockstep, which is
   also what lets the qcheck suites drive the full parallel machinery
   on tiny graphs ([chunk = 1] activates at 4 frontier nodes). *)
let chunk_size = 512
let par_threshold = 4 * chunk_size

(* Candidate buffers for at most this many chunks are in flight per
   round: a round gathers up to [chunks_per_round] chunks in parallel,
   then commits them sequentially in ascending chunk order.  Bounding
   the round keeps candidate storage O(chunks_per_round · chunk)
   regardless of frontier width, and the buffers are reused across
   rounds and levels. *)
let chunks_per_round = 64

(* Per-slot candidate buffer lengths are strided 8 words (64 bytes)
   apart so two domains finishing adjacent slots never write the same
   cache line. *)
let len_stride = 8

type expand = {
  pool : Sched.pool;
  chunk : int;
  bufs : int array array;  (* [chunks_per_round] growable candidate buffers *)
  lens : int array;  (* slot s length at [s * len_stride] *)
}

let make_expand ~domains ~chunk =
  {
    pool = Sched.create ~domains;
    chunk;
    bufs = Array.init chunks_per_round (fun _ -> Array.make 256 0);
    lens = Array.make (chunks_per_round * len_stride) 0;
  }

(* Lazy pool: a traversal that never meets [par_threshold] must not pay
   for spawning domains.  The pool is created on first parallel level
   and shut down by the traversal's [Fun.protect]. *)
type par = { pdomains : int; pchunk : int; mutable pexp : expand option }

let par_get p =
  match p.pexp with
  | Some e -> e
  | None ->
      let e = make_expand ~domains:p.pdomains ~chunk:p.pchunk in
      p.pexp <- Some e;
      e

let with_par ~domains ~chunk f =
  if domains < 1 then invalid_arg "Itopo: domains must be >= 1";
  if chunk < 1 then invalid_arg "Itopo: chunk must be >= 1";
  let p = { pdomains = domains; pchunk = chunk; pexp = None } in
  Fun.protect
    ~finally:(fun () ->
      match p.pexp with
      | Some e -> Sched.shutdown e.pool
      | None -> ())
    (fun () -> f p)

(* The visited bitset doubles as the keep mask: nodes failing [keep]
   are pre-marked once, so the per-candidate test in the hot loops is a
   single bit probe instead of a bit probe plus a closure call. *)
let masked_visited ?ws ~n ~keep () =
  let visited =
    match ws with
    | None -> Bitset.create n
    | Some w ->
        ws_check w n;
        Bitset.clear w.wvisited;
        w.wvisited
  in
  if keep != keep_all then
    for v = 0 to n - 1 do
      if not (keep v) then Bitset.add visited v
    done;
  visited

let order_array ?ws ~n () =
  match ws with None -> Flatarr.make n 0 | Some w -> w.worder

let dist_array ?ws ~n () =
  match ws with
  | None -> Flatarr.make n (-1)
  | Some w ->
      Flatarr.fill w.wdist (-1);
      w.wdist

(* Gather the candidates of chunk [order.{clo .. chi−1}] into slot
   [slot]'s buffer.  Runs on an arbitrary domain: it only READS the
   visited bits (the sequential commit below is the sole writer) and
   writes nothing shared except its own slot's buffer and length.  A
   buffer growth republishes the pointer into [bufs] — made visible to
   the committing domain by the round barrier. *)
let gather exp ~succs ~visited ~(order : Flatarr.t) slot clo chi =
  let buf =
    (ref exp.bufs.(slot)
    [@lint.allow "R7 two scratch refs per chunk gather, amortized over the chunk"])
  in
  let len =
    (ref 0
    [@lint.allow "R7 two scratch refs per chunk gather, amortized over the chunk"])
  in
  let push v =
    if !len = Array.length !buf then begin
      let b =
        (Array.make (2 * !len) 0
        [@lint.allow
          "R7 candidate-buffer growth doubles and republishes into bufs, \
           so the cost amortizes to O(1) words per candidate"])
      in
      Array.blit !buf 0 b 0 !len;
      buf := b;
      exp.bufs.(slot) <- b
    end;
    !buf.(!len) <- v;
    incr len
  [@@lint.allow "R7 one push closure per chunk gather, amortized over the chunk"]
  in
  for i = clo to chi - 1 do
    succs order.{i}
      ((fun v -> if not (Bitset.mem visited v) then push v)
      [@lint.allow
        "R7 per-frontier-node filter closure, deliberately NOT hoisted: \
         its steady minor-heap trickle keeps GC pause boundaries where \
         the per-event latency baselines pinned them (hoisting batches \
         the pauses into single events)"])
  done;
  exp.lens.(slot * len_stride) <- !len
[@@lint.hot]

(* Expand one BFS level [order.{lo..hi-1}] in parallel, in rounds of at
   most [chunks_per_round] chunks.  Within a round the chunks are
   gathered by the work-stealing pool (any domain, any interleaving),
   then committed sequentially in ascending chunk order with the
   visited re-check — exactly the (frontier-position, successor-order)
   sequence the sequential loop considers candidates in, so frontier
   contents, discovery order and distances are bit-identical to
   [domains = 1] whatever the chunk size or steal schedule. *)
let expand_level exp ~succs ~visited ~commit ~order lo hi =
  let chunk = exp.chunk in
  let nchunks = (hi - lo + chunk - 1) / chunk in
  let round_start = ref 0 in
  while !round_start < nchunks do
    let round = min chunks_per_round (nchunks - !round_start) in
    let base = lo + (!round_start * chunk) in
    Sched.parallel_for exp.pool ~chunk:1 ~lo:0 ~hi:round (fun slot _ _ ->
        let clo = base + (slot * chunk) in
        (gather exp ~succs ~visited ~order slot clo (min hi (clo + chunk))
        [@lint.par_write
          "gather writes only bufs.(slot) and lens.(slot * len_stride), \
           and slot is this chunk's ordinal — one writer per slot; \
           visited/order are read-only here (the sequential commit \
           below is the sole writer)"]));
    for slot = 0 to round - 1 do
      let buf = exp.bufs.(slot) in
      let len = exp.lens.(slot * len_stride) in
      for i = 0 to len - 1 do
        let v = buf.(i) in
        if not (Bitset.mem visited v) then commit v
      done
    done;
    round_start := !round_start + round
  done

let bfs ?(domains = 1) ?(chunk = chunk_size) ?ws ~n ~succs ?(keep = keep_all)
    src =
  if src < 0 || src >= n then invalid_arg "Itopo.bfs: source out of range";
  with_par ~domains ~chunk (fun p ->
      let dist = dist_array ?ws ~n () in
      let order = order_array ?ws ~n () in
      let count = ref 0 in
      let visited = masked_visited ?ws ~n ~keep () in
      if not (Bitset.mem visited src) then begin
        Bitset.add visited src;
        dist.{src} <- 0;
        order.{0} <- src;
        count := 1;
        let level_start = ref 0 in
        let d = ref 0 in
        (* Hoisted out of the level loop: allocating these closures per
           level (let alone per node, as a lambda in the inner loop
           would) accounted for megawords of minor garbage per
           traversal. *)
        let commit v =
          Bitset.add visited v;
          dist.{v} <- !d;
          order.{!count} <- v;
          incr count
        in
        let consider v = if not (Bitset.mem visited v) then commit v in
        while !level_start < !count do
          let lo = !level_start and hi = !count in
          level_start := hi;
          incr d;
          if domains > 1 && hi - lo >= 4 * chunk then
            expand_level (par_get p) ~succs ~visited ~commit ~order lo hi
          else
            for i = lo to hi - 1 do
              succs order.{i} consider
            done
        done
      end;
      { dist; order; count = !count })

let bfs_dist ~n ~succs ?keep src =
  Flatarr.to_array (bfs ~n ~succs ?keep src).dist

let eccentricity ~n ~succs ?keep src =
  let r = bfs ~n ~succs ?keep src in
  (* BFS discovers nodes by nondecreasing distance, so the last
     discovery is the farthest. *)
  if r.count = 0 then 0 else r.dist.{r.order.{r.count - 1}}

(* Visited-bitset BFS (no distances) appending discoveries to [order]
   from position [!count]; [visited] must already have [src] unmarked
   and every excluded node pre-marked ({!masked_visited}).  Shared by
   the component sweeps so that one bitset + one order array span every
   seed. *)
let flood ~par:p ~succs ~visited ~(order : Flatarr.t) ~count src =
  Bitset.add visited src;
  order.{!count} <- src;
  incr count;
  let level_start = ref (!count - 1) in
  let commit v =
    Bitset.add visited v;
    order.{!count} <- v;
    incr count
  in
  let consider v = if not (Bitset.mem visited v) then commit v in
  while !level_start < !count do
    let lo = !level_start and hi = !count in
    level_start := hi;
    if p.pdomains > 1 && hi - lo >= 4 * p.pchunk then
      expand_level (par_get p) ~succs ~visited ~commit ~order lo hi
    else
      for i = lo to hi - 1 do
        succs order.{i} consider
      done
  done

let component_members ~n ~succs ~preds ?(keep = keep_all) src =
  if src < 0 || src >= n then
    invalid_arg "Itopo.component_members: source out of range";
  if not (keep src) then [||]
  else begin
    let both = symmetric ~succs ~preds in
    let visited = masked_visited ~n ~keep () in
    (* Growable order so a small component on a huge graph costs
       O(component) words beyond the bitset. *)
    let buf = ref (Array.make 64 0) in
    let len = ref 0 in
    Bitset.add visited src;
    !buf.(0) <- src;
    len := 1;
    let head = ref 0 in
    let consider v =
      if not (Bitset.mem visited v) then begin
        Bitset.add visited v;
        if !len = Array.length !buf then begin
          let b = Array.make (2 * !len) 0 in
          Array.blit !buf 0 b 0 !len;
          buf := b
        end;
        !buf.(!len) <- v;
        incr len
      end
    in
    while !head < !len do
      let u = !buf.(!head) in
      incr head;
      both u consider
    done;
    Array.sub !buf 0 !len
  end

(* Shared sweep: floods every component into [order] and returns the
   span (start, size) of the largest one.  Each component occupies a
   contiguous segment of [order], already in BFS discovery order from
   its smallest member (seeds ascend). *)
let lwc_sweep ~par ~n ~both ~visited ~order =
  let count = ref 0 in
  let best_start = ref 0 and best_size = ref 0 in
  for seed = 0 to n - 1 do
    if not (Bitset.mem visited seed) then begin
      let start = !count in
      flood ~par ~succs:both ~visited ~order ~count seed;
      let size = !count - start in
      (* strict [>]: ties go to the earlier seed, i.e. the component
         containing the smallest node — matching the seed's
         Oracles.Traversal.largest_weak_component. *)
      if size > !best_size then begin
        best_size := size;
        best_start := start
      end
    end
  done;
  (!best_start, !best_size)

let largest_weak_component ?(domains = 1) ?(chunk = chunk_size) ~n ~succs
    ~preds ?(keep = keep_all) () =
  with_par ~domains ~chunk (fun par ->
      let both = symmetric ~succs ~preds in
      let visited = masked_visited ~n ~keep () in
      let order = Flatarr.make n 0 in
      let start, size = lwc_sweep ~par ~n ~both ~visited ~order in
      Flatarr.sub_to_array order start size)

let largest_weak_component_span ?(domains = 1) ?(chunk = chunk_size) ~ws ~n
    ~succs ~preds ?(keep = keep_all) () =
  with_par ~domains ~chunk (fun par ->
      let both = symmetric ~succs ~preds in
      let visited = masked_visited ~ws ~n ~keep () in
      let order = ws.worder in
      let start, size = lwc_sweep ~par ~n ~both ~visited ~order in
      (order, start, size))

let weak_labels ~n ~succs ~preds ?(keep = keep_all) () =
  let both = symmetric ~succs ~preds in
  let visited = masked_visited ~n ~keep () in
  let order = Flatarr.make n 0 in
  let count = ref 0 in
  let label = Array.make n (-1) in
  let par = { pdomains = 1; pchunk = chunk_size; pexp = None } in
  for seed = 0 to n - 1 do
    if not (Bitset.mem visited seed) then begin
      let start = !count in
      flood ~par ~succs:both ~visited ~order ~count seed;
      for i = start to !count - 1 do
        label.(order.{i}) <- seed
      done
    end
  done;
  label

let is_strongly_connected ~n ~succs ~preds ?(keep = keep_all) () =
  let root = ref (-1) in
  let kept = ref 0 in
  for v = n - 1 downto 0 do
    if keep v then begin
      root := v;
      incr kept
    end
  done;
  !kept <= 1
  ||
  let fwd = bfs ~n ~succs ~keep !root in
  fwd.count = !kept
  &&
  let bwd = bfs ~n ~succs:preds ~keep !root in
  bwd.count = !kept
