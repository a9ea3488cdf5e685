module W = Debruijn.Word
module Fa = Graphlib.Flatarr

type tree = {
  adj : Adjacency.t;
  root_idx : int;
  parent : Fa.t;
  label : Fa.t;
  chosen : Fa.t;
}

let fail reason = Pipeline_error.raise_error ~stage:"Spanning" reason

(* The T′ parent rule (Step 1.1), shared with [Live]: the minimal
   predecessor one BFS level up.  Reading [dist] alone suffices — it is
   −1 outside B* in both engines, and callers ask only for dv ≥ 1.
   Module-level so the parent search allocates no closure — a capturing
   [let rec] in a loop would cost ~9 minor words per call. *)
let rec find_parent (dist : Fa.I32.t) stride d pre dv a =
  if a = d then -1
  else
    let u = (a * stride) + pre in
    if Int32.to_int dist.{u} = dv - 1 then u
    else find_parent dist stride d pre dv (a + 1)
[@@lint.hot]

let build ?domains:_ ?ws (adj : Adjacency.t) =
  let bstar = adj.Adjacency.bstar in
  let p = bstar.Bstar.p in
  let size = p.W.size in
  let d = p.W.d in
  let stride = size / d in
  (* T′'s levels: Bstar.compute's BFS from R (Step 1.1). *)
  let dist = bstar.Bstar.dist in
  let in_bstar = bstar.Bstar.in_bstar in
  let root = bstar.Bstar.root in
  (match ws with Some w -> Workspace.check w p | None -> ());
  if in_bstar.{root} = 0 then fail "the root R is not in B*";
  let m = Array.length adj.Adjacency.reps in
  let idx_of_node = adj.Adjacency.idx_of_node in
  let root_idx = Int32.to_int idx_of_node.{root} in
  (* Necklace-level arrays: workspace capacity is the fault-free
     necklace count ≥ m; only the first m entries are (re)set and
     read. *)
  let necklace_array =
    match ws with
    | None -> fun _ -> Fa.make m (-1)
    | Some w ->
        fun pick ->
          let a = pick w in
          Fa.fill_prefix a m (-1);
          a
  in
  let parent = necklace_array (fun w -> w.Workspace.parent) in
  let label = necklace_array (fun w -> w.Workspace.label) in
  let chosen = necklace_array (fun w -> w.Workspace.chosen) in
  (* Earliest receipt, ties toward the minimal node — a lexicographic
     (dist, node) minimum per necklace.  One ascending node scan: on
     equal distance the first (smallest) node sticks. *)
  for v = 0 to size - 1 do
    let i = Int32.to_int idx_of_node.{v} in
    if i >= 0 then begin
      let b = chosen.{i} in
      if b < 0 || Int32.to_int dist.{v} < Int32.to_int dist.{b} then
        chosen.{i} <- v
    end
  done;
  (* Step 1.2 reads the T′ parent of each chosen Y alone, so the parent
     rule runs there only: predecessors are a·stride + Y/d for
     a = 0..d−1, ascending in a, so the first hit one level up is the
     minimal one.  [dist] comes with the B* record, so a caller that
     edited [in_bstar] afterwards can hand over a parent outside B*.
     Every member's necklace is indexed, so one inside has an index. *)
  for i = 0 to m - 1 do
    let y = chosen.{i} in
    if y < 0 then fail "a necklace of B* has no reached node";
    if i <> root_idx then begin
      let par_node =
        find_parent dist stride d (y / d) (Int32.to_int dist.{y}) 0
      in
      if par_node < 0 then fail "a necklace's earliest node has no T' parent";
      if in_bstar.{par_node} = 0 then fail "a necklace's T' parent lies outside B*";
      parent.{i} <- Int32.to_int idx_of_node.{par_node};
      label.{i} <- W.prefix p y
    end
  done;
  (* The root's chosen node is R itself (distance 0). *)
  chosen.{root_idx} <- root;
  { adj; root_idx; parent; label; chosen }

let tree_edges t =
  let m = Array.length t.adj.Adjacency.reps in
  List.filter_map
    (fun i ->
      if i = t.root_idx then None else Some (t.parent.{i}, i, t.label.{i}))
    (List.init m Fun.id)

let check_height_one t =
  let by_label = Hashtbl.create 16 in
  List.for_all
    (fun (par, _, w) ->
      match Hashtbl.find_opt by_label w with
      | None ->
          Hashtbl.add by_label w par;
          true
      | Some par' -> par = par')
    (tree_edges t)

type modified = { tree : tree; digit : Succ_digit.t }

let not_height_one = "a label class T_w has two parents"

(* Insert [x] into the ascending run [a.{0 .. j}]. *)
let rec sift (a : Fa.t) x j =
  if j >= 0 && a.{j} > x then begin
    a.{j + 1} <- a.{j};
    sift a x (j - 1)
  end
  else a.{j + 1} <- x
[@@lint.hot]

let rec link_from p key (members : Fa.t) k w digit i =
  if i = k then true
  else
    let exit = Adjacency.exit_scan p key members.{i} w 0 in
    let entry = Adjacency.entry_scan p key members.{(i + 1) mod k} w 0 in
    if exit < 0 || entry < 0 then false
    else begin
      Succ_digit.set digit exit (entry - (w * p.W.d));
      link_from p key members k w digit (i + 1)
    end
[@@lint.hot]

(* Step 2, shared with [Live]: sort the k keys of one T_w class
   ascending in [members.{0 .. k−1}] (a T_w is tiny, two members is
   typical) and record the directed w-cycle through them as node-level
   D-edges, exit(i) → entry(i+1 mod k): the exit αw gets the last digit
   β of the entry wβ.  False when a member has no exit or entry node
   for w. *)
let link_class p key (members : Fa.t) k w digit =
  for i = 1 to k - 1 do
    sift members members.{i} (i - 1)
  done;
  link_from p key members k w digit 0
[@@lint.hot]

(* Bucket the non-root necklaces by their parent-edge label w — labels
   are ints below wsize, so two arrays replace the seed's Hashtbl.
   Height-one means all w-edges share one parent, so each bucket records
   the parent once plus the child list. *)
let label_buckets t =
  let adj = t.adj in
  let p = adj.Adjacency.bstar.Bstar.p in
  let wsize = p.W.size / p.W.d in
  let m = Array.length adj.Adjacency.reps in
  let bucket_par = Array.make wsize (-1) in
  let bucket_children = Array.make wsize [] in
  for i = 0 to m - 1 do
    if i <> t.root_idx then begin
      let w = t.label.{i} in
      let par = t.parent.{i} in
      if bucket_par.(w) < 0 then bucket_par.(w) <- par
      else if bucket_par.(w) <> par then fail not_height_one;
      bucket_children.(w) <- i :: bucket_children.(w)
    end
  done;
  (bucket_par, bucket_children)

let modify ?ws t =
  let adj = t.adj in
  let p = adj.Adjacency.bstar.Bstar.p in
  let wsize = p.W.size / p.W.d in
  let m = Array.length adj.Adjacency.reps in
  (* Same bucketing as {!label_buckets}, but as intrusive lists in flat
     arrays ([bucket_head]/[bucket_next]) so the workspace path
     allocates nothing; the fresh path uses identical code on fresh
     arrays.  Walking a chain yields children in descending index —
     the same order the cons-list version produced — and the sort below
     canonicalizes anyway. *)
  let bucket_par, bucket_head, bucket_next, scratch, digit =
    match ws with
    | None ->
        ( Fa.make wsize (-1),
          Fa.make wsize (-1),
          Fa.make m (-1),
          Fa.make (m + 1) 0,
          Succ_digit.create p )
    | Some w ->
        Workspace.check w p;
        Fa.fill w.Workspace.bucket_par (-1);
        Fa.fill w.Workspace.bucket_head (-1);
        (* bucket_next needs no reset: only chains rooted in
           bucket_head are walked, and every link on them is written
           this call.  The digit table needs none either: the rotation
           pass below writes every node. *)
        ( w.Workspace.bucket_par,
          w.Workspace.bucket_head,
          w.Workspace.bucket_next,
          w.Workspace.nscratch,
          w.Workspace.digit )
  in
  for i = 0 to m - 1 do
    if i <> t.root_idx then begin
      let w = t.label.{i} in
      let par = t.parent.{i} in
      if bucket_par.{w} < 0 then bucket_par.{w} <- par
      else if bucket_par.{w} <> par then fail not_height_one;
      bucket_next.{i} <- bucket_head.{w};
      bucket_head.{w} <- i
    end
  done;
  (* Every node of B* starts on its necklace successor; then the
     D-edges, flattened to node level: the w-edge [X]→[Y] leaves [X] at
     its unique exit node αw and enters [Y] at its unique entry node
     wβ, so the exit's one digit β replaces the (idx, w)-keyed Hashtbl.
     (Cursor refs hoisted out of the loop — one allocation, not one per
     bucket.) *)
  Succ_digit.fill_rotations p adj.Adjacency.bstar.Bstar.in_bstar digit;
  let k = ref 0 in
  let c = ref (-1) in
  for w = 0 to wsize - 1 do
    let par = bucket_par.{w} in
    if par >= 0 then begin
      k := 1;
      scratch.{0} <- par;
      c := bucket_head.{w};
      while !c >= 0 do
        scratch.{!k} <- !c;
        incr k;
        c := bucket_next.{!c}
      done;
      (* Representatives ascend with index, so index order IS
         increasing-representative order. *)
      if not (link_class p adj.Adjacency.idx_of_node scratch !k w digit)
      then fail "a T_w member has no exit or entry node"
    end
  done;
  { tree = t; digit }

let groups m =
  let t = m.tree in
  let adj = t.adj in
  let p = adj.Adjacency.bstar.Bstar.p in
  let wsize = p.W.size / p.W.d in
  let bucket_par, bucket_children = label_buckets t in
  let rep i = adj.Adjacency.reps.(i) in
  let acc = ref [] in
  for w = wsize - 1 downto 0 do
    let par = bucket_par.(w) in
    if par >= 0 then
      acc :=
        ( w,
          List.sort
            (fun a b -> Int.compare (rep a) (rep b))
            (par :: bucket_children.(w)) )
        :: !acc
  done;
  !acc

(* A D-edge exit is the one node of B* whose digit is not its own
   leading digit: the entry wβ lies on another necklace, so β ≠ α. *)
let is_exit p m x =
  let beta = Succ_digit.get m.digit x in
  beta >= 0 && beta <> W.first_digit p x

let out_edge m idx w =
  let adj = m.tree.adj in
  let p = adj.Adjacency.bstar.Bstar.p in
  match Adjacency.node_with_suffix adj idx w with
  | Some exit when is_exit p m exit ->
      Some
        (Int32.to_int
           adj.Adjacency.idx_of_node.{W.snoc p w (Succ_digit.get m.digit exit)})
  | _ -> None

let d_edge_count m =
  let p = m.tree.adj.Adjacency.bstar.Bstar.p in
  let acc = ref 0 in
  for x = 0 to p.W.size - 1 do
    if is_exit p m x then incr acc
  done;
  !acc

let is_spanning_subgraph m =
  let adj = m.tree.adj in
  List.for_all
    (fun (w, members) ->
      let arr = Array.of_list members in
      let k = Array.length arr in
      let ok = ref true in
      Array.iteri
        (fun i src ->
          let dst = arr.((i + 1) mod k) in
          ok :=
            !ok
            && Option.is_some (Adjacency.node_with_suffix adj src w)
            && Option.is_some (Adjacency.node_with_prefix adj dst w)
            && src <> dst)
        arr;
      !ok)
    (groups m)
