module W = Debruijn.Word
module Nk = Debruijn.Necklace
module Fa = Graphlib.Flatarr
module It = Graphlib.Itopo

type t = {
  p : W.params;
  graph : Graphlib.Digraph.t Lazy.t;
  faults : int list;
  necklace_faulty : Fa.Byte.t;
  in_bstar : Fa.Byte.t;
  size : int;
  root : int;
  dist : Fa.I32.t;
  ecc : int;
}

let succs p = fun x f -> W.iter_succs p x f
let preds p = fun x f -> W.iter_preds p x f

(* Mark the necklace of [x] in [buf], walking its rotation cycle from
   [y] back to [x]; returns [acc] plus the number of nodes newly
   marked.  Module-level recursion, like [Adjacency.assign_necklace],
   so no closure is allocated per fault. *)
let rec mark_necklace p (buf : Fa.Byte.t) x y acc =
  let acc =
    if buf.{y} = 0 then begin
      buf.{y} <- 1;
      acc + 1
    end
    else acc
  in
  let y' = W.rotl p y in
  if y' = x then acc else mark_necklace p buf x y' acc

(* Byte-flag variant of [Nk.mark_faulty_necklaces_into].  Returns the
   number of nodes marked, each counted once however many faults share
   its necklace. *)
let mark_faulty_necklaces_byte p faults (buf : Fa.Byte.t) =
  if Fa.Byte.length buf <> p.W.size then
    invalid_arg "Bstar: necklace_faulty buffer sized wrong";
  Fa.Byte.fill buf 0;
  List.fold_left (fun acc x -> mark_necklace p buf x x acc) 0 faults

(* Successor-only sweeps below: the removed set is a union of
   necklaces, so every weak component is strongly connected (see the
   header above) — directed reachability from a seed already covers its
   whole weak component, at half the edge work of the symmetric
   closure.  A BFS from R over the live nodes therefore reaches exactly
   R's component, and in the same order as a BFS over that component
   alone: it is Step 1.1's broadcast, and its distances are T′'s
   levels. *)
let bfs_from itws p (necklace_faulty : Fa.Byte.t) src =
  It.bfs ~ws:itws ~n:p.W.size ~succs:(succs p)
    ~keep:(fun v -> necklace_faulty.{v} = 0)
    src

(* The record of the component that [bfs] reached from [root];
   [in_bstar] must be all-zero on entry. *)
let of_bfs p faults necklace_faulty (in_bstar : Fa.Byte.t) root (bfs : It.bfs)
    =
  let order = bfs.It.order and count = bfs.It.count in
  for i = 0 to count - 1 do
    in_bstar.{Int32.to_int order.{i}} <- 1
  done;
  let dist = bfs.It.dist in
  {
    p;
    graph = lazy (Debruijn.Graph.b p);
    faults;
    necklace_faulty;
    in_bstar;
    size = count;
    root;
    dist;
    (* BFS discovers by nondecreasing distance, so ecc(R) is the
       distance of the last discovery. *)
    ecc = Int32.to_int dist.{Int32.to_int order.{count - 1}};
  }

let rec first_live (necklace_faulty : Fa.Byte.t) v =
  if necklace_faulty.{v} = 0 then v else first_live necklace_faulty (v + 1)

(* No component holds a majority: sweep every component and take the
   largest (ties toward the one holding the smallest node).  R is the
   hint's representative when it lies inside, else the smallest member
   — minimal on its necklace, so itself a representative. *)
let fallback_root itws p necklace_faulty root_hint =
  let order, start, len =
    It.largest_weak_component_span ~ws:itws ~n:p.W.size
      ~succs:(succs p) ~preds:It.no_preds
      ~keep:(fun v -> necklace_faulty.{v} = 0)
      ()
  in
  let hint =
    match root_hint with
    | Some h when h >= 0 && h < p.W.size -> Nk.canonical p h
    | _ -> -1
  in
  let best = ref max_int and hinted = ref false in
  for i = start to start + len - 1 do
    let v = Int32.to_int order.{i} in
    if v < !best then best := v;
    if v = hint then hinted := true
  done;
  if !hinted then hint else !best

let compute ?root_hint ?domains:_ ?ws p ~faults =
  let size = p.W.size in
  let necklace_faulty, in_bstar, itws =
    match ws with
    | None ->
        Fa.I32.check_nodes size;
        (Fa.Byte.create size, Fa.Byte.make size 0, It.ws_create size)
    | Some w ->
        Workspace.check w p;
        Fa.Byte.fill w.Workspace.in_bstar 0;
        (w.Workspace.necklace_faulty, w.Workspace.in_bstar, w.Workspace.it)
  in
  let live = size - mark_faulty_necklaces_byte p faults necklace_faulty in
  if live = 0 then None
  else begin
    (* The root candidate: the hint's representative when its necklace
       is live, else the smallest live node.  If its component holds a
       strict majority of the live nodes, that component is the unique
       largest — B* — and the candidate is exactly the R the fallback
       would pick, so the one BFS is both the sweep and T′'s. *)
    let candidate =
      match root_hint with
      | Some h when h >= 0 && h < size && necklace_faulty.{h} = 0 ->
          Nk.canonical p h
      | _ -> first_live necklace_faulty 0
    in
    let bfs = bfs_from itws p necklace_faulty candidate in
    if 2 * bfs.It.count > live then
      Some (of_bfs p faults necklace_faulty in_bstar candidate bfs)
    else
      let root = fallback_root itws p necklace_faulty root_hint in
      Some
        (of_bfs p faults necklace_faulty in_bstar root
           (bfs_from itws p necklace_faulty root))
  end

let component_members p ~faults node =
  let necklace_faulty = Nk.mark_faulty_necklaces p faults in
  if necklace_faulty.(node) then [||]
  else
    It.component_members ~n:p.W.size ~succs:(succs p) ~preds:(preds p)
      ~keep:(fun v -> not necklace_faulty.(v))
      node

let component_of p ~faults node =
  let size = p.W.size in
  let necklace_faulty = Fa.Byte.create size in
  ignore (mark_faulty_necklaces_byte p faults necklace_faulty);
  if necklace_faulty.{node} <> 0 then None
  else
    let root = Nk.canonical p node in
    Some
      (of_bfs p faults necklace_faulty (Fa.Byte.make size 0) root
         (bfs_from (It.ws_create size) p necklace_faulty root))

let fault_probe t =
  let size = t.p.W.size in
  let mask = Graphlib.Bitset.create size in
  List.iter (fun v -> if v >= 0 && v < size then Graphlib.Bitset.add mask v) t.faults;
  fun v -> v >= 0 && v < size && Graphlib.Bitset.mem mask v

let nodes t =
  let acc = ref [] in
  for v = t.p.W.size - 1 downto 0 do
    if t.in_bstar.{v} <> 0 then acc := v :: !acc
  done;
  !acc

let necklace_count t =
  (* Ascending sweep: the first node seen of each necklace is its
     minimal rotation, i.e. the representative — one O(size) pass, no
     canonical-form computation. *)
  let seen = Graphlib.Bitset.create t.p.W.size in
  let count = ref 0 in
  for v = 0 to t.p.W.size - 1 do
    if t.in_bstar.{v} <> 0 && not (Graphlib.Bitset.mem seen v) then begin
      incr count;
      Nk.iter_nodes_from t.p v (fun y -> Graphlib.Bitset.add seen y)
    end
  done;
  !count

let eccentricity_of_root t = t.ecc

let diameter t =
  let in_bstar = t.in_bstar in
  let keep v = in_bstar.{v} <> 0 in
  let best = ref 0 in
  for v = 0 to t.p.W.size - 1 do
    if t.in_bstar.{v} <> 0 then
      best :=
        max !best (It.eccentricity ~n:t.p.W.size ~succs:(succs t.p) ~keep v)
  done;
  !best

let is_strongly_connected t =
  let in_bstar = t.in_bstar in
  It.is_strongly_connected ~n:t.p.W.size ~succs:(succs t.p) ~preds:(preds t.p)
    ~keep:(fun v -> in_bstar.{v} <> 0)
    ()
