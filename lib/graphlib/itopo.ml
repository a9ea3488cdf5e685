type iter = int -> (int -> unit) -> unit

module I32 = Flatarr.I32

type bfs = { dist : I32.t; order : I32.t; count : int }

(* Reusable traversal scratch: one visited bitset plus full-size
   distance/order arrays, sized for a fixed node count [n].  The
   dist/order arrays are off-heap 32-bit cells ({!Flatarr.I32}), so a
   traversal's 8n-byte working set never enters the GC.  Every
   traversal that accepts [?ws] resets exactly the state it uses
   (bitset clear is O(n/8); the dist fill is O(n)), so reuse across
   traversals is bit-identical to fresh allocation.  The loops below
   index the cells directly ([Int32.to_int a.{i}]): a cross-module
   accessor would be a call per node under [-opaque]. *)
type ws = { wn : int; wvisited : Bitset.t; wdist : I32.t; worder : I32.t }

(* Every fresh node table goes through the 2³¹ preflight first. *)
let fresh_cells n v =
  I32.check_nodes n;
  I32.make n v

let ws_create n =
  if n < 0 then invalid_arg "Itopo.ws_create: negative size";
  I32.check_nodes n;
  let wdist = I32.make n (-1) and worder = I32.make n 0 in
  { wn = n; wvisited = Bitset.create n; wdist; worder }

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

let bfs ?ws ~n ~succs ?(keep = keep_all) src =
  if src < 0 || src >= n then invalid_arg "Itopo.bfs: source out of range";
  let dist, order =
    match ws with
    | None -> (fresh_cells n (-1), fresh_cells n 0)
    | Some w ->
        I32.fill w.wdist (-1);
        (w.wdist, w.worder)
  in
  let count = ref 0 in
  let visited = masked_visited ?ws ~n ~keep () in
  if not (Bitset.mem visited src) then begin
    Bitset.add visited src;
    dist.{src} <- 0l;
    order.{0} <- Int32.of_int src;
    count := 1;
    let level_start = ref 0 in
    let d = ref 0 in
    (* Hoisted out of the level loop: allocating this closure per level
       (let alone per node, as a lambda in the inner loop would)
       accounted for megawords of minor garbage per traversal. *)
    let consider v =
      if not (Bitset.mem visited v) then begin
        Bitset.add visited v;
        dist.{v} <- Int32.of_int !d;
        order.{!count} <- Int32.of_int v;
        incr count
      end
    in
    while !level_start < !count do
      let lo = !level_start and hi = !count in
      level_start := hi;
      incr d;
      for i = lo to hi - 1 do
        succs (Int32.to_int order.{i}) consider
      done
    done
  end;
  { dist; order; count = !count }

let bfs_dist ~n ~succs ?keep src =
  I32.to_array (bfs ~n ~succs ?keep src).dist

let eccentricity ~n ~succs ?keep src =
  let r = bfs ~n ~succs ?keep src in
  (* BFS discovers nodes by nondecreasing distance, so the last
     discovery is the farthest. *)
  if r.count = 0 then 0
  else Int32.to_int r.dist.{Int32.to_int r.order.{r.count - 1}}

(* Visited-bitset BFS (no distances) appending discoveries to [order]
   from position [!count]; [visited] must already have [src] unmarked
   and every excluded node pre-marked ({!masked_visited}).  Shared by
   the component sweeps so that one bitset + one order array span every
   seed. *)
let flood ~succs ~visited ~(order : I32.t) ~count src =
  Bitset.add visited src;
  order.{!count} <- Int32.of_int src;
  incr count;
  let level_start = ref (!count - 1) in
  let consider v =
    if not (Bitset.mem visited v) then begin
      Bitset.add visited v;
      order.{!count} <- Int32.of_int v;
      incr count
    end
  in
  while !level_start < !count do
    let lo = !level_start and hi = !count in
    level_start := hi;
    for i = lo to hi - 1 do
      succs (Int32.to_int order.{i}) consider
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

(* Floods every component into [order] and keeps the largest.  Each
   component occupies a contiguous segment of [order], already in BFS
   discovery order from its smallest member (seeds ascend). *)
let largest_weak_component ~n ~succs ~preds ?(keep = keep_all) () =
  let both = symmetric ~succs ~preds in
  let visited = masked_visited ~n ~keep () in
  let order = fresh_cells n 0 in
  let count = ref 0 in
  let best_start = ref 0 and best_size = ref 0 in
  for seed = 0 to n - 1 do
    if not (Bitset.mem visited seed) then begin
      let start = !count in
      flood ~succs:both ~visited ~order ~count seed;
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
  I32.sub_to_array order !best_start !best_size

let weak_labels ~n ~succs ~preds ?(keep = keep_all) () =
  let both = symmetric ~succs ~preds in
  let visited = masked_visited ~n ~keep () in
  let order = fresh_cells n 0 in
  let count = ref 0 in
  let label = Array.make n (-1) in
  for seed = 0 to n - 1 do
    if not (Bitset.mem visited seed) then begin
      let start = !count in
      flood ~succs:both ~visited ~order ~count seed;
      for i = start to !count - 1 do
        label.(Int32.to_int order.{i}) <- seed
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
