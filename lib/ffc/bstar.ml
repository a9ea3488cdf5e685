module W = Debruijn.Word
module Nk = Debruijn.Necklace
module Fa = Graphlib.Flatarr

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

(* Mark the necklace of [x] in [buf], walking its rotation cycle from
   [y] back to [x]; returns [acc] plus the number of nodes newly
   marked.  Module-level recursion, like [Adjacency.walk_necklace],
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
  Fa.Byte.fill buf 0;
  List.fold_left (fun acc x -> mark_necklace p buf x x acc) 0 faults

(* Step 1.1's broadcast, and every component sweep below: a FIFO flood
   of B(d,n) from a source, x expanding to its successors
   (x mod dⁿ⁻¹)·d + a for a ascending, each taken iff it is neither on
   a faulty necklace nor already marked in [mark] (the B* flags, so
   [in_bstar] is the visited set).  Successor-only: the removed set is a
   union of necklaces, so every weak component is strongly connected
   (bstar.mli's header) and directed reachability from a seed covers its
   whole component.  Discoveries append to [order] from [tail] with
   their level in [dist]; [expand] returns the new tail.  Module-level
   recursion over plain arguments: no closure, no ref, no boxed int32. *)
let rec expand (nf : Fa.Byte.t) (mark : Fa.Byte.t) (dist : Fa.I32.t)
    (order : Fa.I32.t) d base lv a tail =
  if a = d then tail
  else
    let v = base + a in
    if mark.{v} lor nf.{v} = 0 then begin
      mark.{v} <- 1;
      dist.{v} <- Int32.of_int lv;
      order.{tail} <- Int32.of_int v;
      expand nf mark dist order d base lv (a + 1) (tail + 1)
    end
    else expand nf mark dist order d base lv (a + 1) tail
[@@lint.hot]

let rec drain nf mark dist order stride d head tail =
  if head = tail then tail
  else
    let x = Int32.to_int order.{head} in
    drain nf mark dist order stride d (head + 1)
      (expand nf mark dist order d
         (x mod stride * d)
         (Int32.to_int dist.{x} + 1)
         0 tail)
[@@lint.hot]

(* Flood the component of the live, unmarked [src] into
   [order.{start ..}]; returns the end of its segment. *)
let flood p nf (mark : Fa.Byte.t) (dist : Fa.I32.t) (order : Fa.I32.t) start
    src =
  mark.{src} <- 1;
  dist.{src} <- 0l;
  order.{start} <- Int32.of_int src;
  drain nf mark dist order (p.W.size / p.W.d) p.W.d start (start + 1)
[@@lint.hot]

(* The record of [root]'s component, flooded into the all-clear [mark]
   and [dist]. *)
let of_flood p faults necklace_faulty mark dist (order : Fa.I32.t) root =
  let count = flood p necklace_faulty mark dist order 0 root in
  {
    p;
    graph = lazy (Debruijn.Graph.b p);
    faults;
    necklace_faulty;
    in_bstar = mark;
    size = count;
    root;
    dist;
    (* The flood discovers by nondecreasing distance, so ecc(R) is the
       distance of the last discovery. *)
    ecc = Int32.to_int dist.{Int32.to_int order.{count - 1}};
  }

(* The four node tables, the workspace's, with the marks and levels
   cleared. *)
let tables ws p =
  let { Workspace.necklace_faulty; in_bstar; dist; order; _ } =
    Workspace.resolve ws p
  in
  Fa.Byte.fill in_bstar 0;
  Fa.I32.fill dist (-1);
  (necklace_faulty, in_bstar, dist, order)

let rec first_live (necklace_faulty : Fa.Byte.t) v =
  if necklace_faulty.{v} = 0 then v else first_live necklace_faulty (v + 1)

(* No component holds a majority: flood every live node's component in
   ascending seed order (each seed is its component's smallest node)
   and keep the largest, ties toward the earlier seed.  R is the hint's
   representative when it lies inside, else the seed — minimal on its
   necklace, so itself a representative.  [mark] must be all-clear. *)
let sweep_root p nf (mark : Fa.Byte.t) dist (order : Fa.I32.t) root_hint =
  let tail = ref 0 and best_start = ref 0 and best_size = ref 0 in
  for seed = 0 to p.W.size - 1 do
    if mark.{seed} lor nf.{seed} = 0 then begin
      let start = !tail in
      tail := flood p nf mark dist order start seed;
      if !tail - start > !best_size then begin
        best_start := start;
        best_size := !tail - start
      end
    end
  done;
  let hint =
    match root_hint with
    | Some h when h >= 0 && h < p.W.size -> Nk.canonical p h
    | _ -> -1
  in
  let hinted = ref false in
  for i = !best_start to !best_start + !best_size - 1 do
    if Int32.to_int order.{i} = hint then hinted := true
  done;
  if !hinted then hint else Int32.to_int order.{!best_start}

let compute ?root_hint ?domains:_ ?ws p ~faults =
  let necklace_faulty, in_bstar, dist, order = tables ws p in
  let live = p.W.size - mark_faulty_necklaces_byte p faults necklace_faulty in
  if live = 0 then None
  else begin
    (* The root candidate: the hint's representative when its necklace
       is live, else the smallest live node.  If its component holds a
       strict majority of the live nodes, that component is the unique
       largest — B* — and the candidate is exactly the R the sweep
       would pick, so the one flood is both the sweep and T′'s. *)
    let candidate =
      match root_hint with
      | Some h when h >= 0 && h < p.W.size && necklace_faulty.{h} = 0 ->
          Nk.canonical p h
      | _ -> first_live necklace_faulty 0
    in
    let b = of_flood p faults necklace_faulty in_bstar dist order candidate in
    if 2 * b.size > live then Some b
    else begin
      for i = 0 to b.size - 1 do
        in_bstar.{Int32.to_int order.{i}} <- 0
      done;
      let root = sweep_root p necklace_faulty in_bstar dist order root_hint in
      Fa.Byte.fill in_bstar 0;
      Fa.I32.fill dist (-1);
      Some (of_flood p faults necklace_faulty in_bstar dist order root)
    end
  end

let component_of p ~faults node =
  let necklace_faulty, in_bstar, dist, order = tables None p in
  ignore (mark_faulty_necklaces_byte p faults necklace_faulty);
  if necklace_faulty.{node} <> 0 then None
  else
    Some
      (of_flood p faults necklace_faulty in_bstar dist order
         (Nk.canonical p node))

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
