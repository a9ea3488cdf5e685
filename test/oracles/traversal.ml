module Digraph = Graphlib.Digraph

let bfs_dist_restricted g keep src =
  let n = Digraph.n_nodes g in
  if src < 0 || src >= n then invalid_arg "Traversal.bfs: source out of range";
  if not (keep src) then invalid_arg "Traversal.bfs: source excluded by predicate";
  let dist = Array.make n (-1) in
  let q = Queue.create () in
  dist.(src) <- 0;
  Queue.push src q;
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    List.iter
      (fun v ->
        if keep v && dist.(v) < 0 then begin
          dist.(v) <- dist.(u) + 1;
          Queue.push v q
        end)
      (Digraph.succs g u)
  done;
  dist

let bfs_dist g src = bfs_dist_restricted g (fun _ -> true) src

let bfs_tree g src =
  let n = Digraph.n_nodes g in
  if src < 0 || src >= n then
    invalid_arg "Traversal.bfs_tree: source out of range";
  let dist = Array.make n (-1) in
  (* Flat queue doubling as discovery order — so the parent scan below
     can visit exactly the reached nodes, never touching the
     predecessor lists of unreachable ones. *)
  let order = Array.make n 0 in
  let count = ref 0 in
  dist.(src) <- 0;
  order.(0) <- src;
  count := 1;
  let head = ref 0 in
  while !head < !count do
    let u = order.(!head) in
    incr head;
    List.iter
      (fun v ->
        if dist.(v) < 0 then begin
          dist.(v) <- dist.(u) + 1;
          order.(!count) <- v;
          incr count
        end)
      (Digraph.succs g u)
  done;
  let parent = Array.make n (-1) in
  for i = 1 to !count - 1 do
    let v = order.(i) in
    (* Minimal predecessor at the previous BFS level: this is the
       paper's tie-break, and it is what makes sibling De Bruijn nodes
       wα, wβ share a parent (they share their full predecessor set). *)
    let best = ref max_int in
    List.iter
      (fun u -> if dist.(u) = dist.(v) - 1 && u < !best then best := u)
      (Digraph.preds g v);
    if !best < max_int then parent.(v) <- !best
  done;
  (dist, parent)

let eccentricity g src =
  Array.fold_left max 0 (bfs_dist g src)

let diameter_from_all g =
  let n = Digraph.n_nodes g in
  let best = ref 0 in
  for v = 0 to n - 1 do
    let d = bfs_dist g v in
    let reaches_all = Array.for_all (fun x -> x >= 0) d in
    if reaches_all then best := max !best (Array.fold_left max 0 d)
  done;
  !best

let weak_components g =
  let u = Digraph.undirected_view g in
  let n = Digraph.n_nodes u in
  let label = Array.make n (-1) in
  let count = ref 0 in
  for v = 0 to n - 1 do
    if label.(v) < 0 then begin
      let id = !count in
      incr count;
      let q = Queue.create () in
      label.(v) <- id;
      Queue.push v q;
      while not (Queue.is_empty q) do
        let a = Queue.pop q in
        List.iter
          (fun b ->
            if label.(b) < 0 then begin
              label.(b) <- id;
              Queue.push b q
            end)
          (Digraph.succs u a)
      done
    end
  done;
  (label, !count)

let largest_weak_component g keep =
  let n = Digraph.n_nodes g in
  (* Component labels over the induced symmetric closure. *)
  let label = Array.make n (-1) in
  let sizes = ref [] in
  let count = ref 0 in
  let undirected_neighbors v =
    List.filter keep (Digraph.succs g v) @ List.filter keep (Digraph.preds g v)
  in
  for v = 0 to n - 1 do
    if keep v && label.(v) < 0 then begin
      let id = !count in
      incr count;
      let size = ref 0 in
      let q = Queue.create () in
      label.(v) <- id;
      Queue.push v q;
      while not (Queue.is_empty q) do
        let a = Queue.pop q in
        incr size;
        List.iter
          (fun b ->
            if label.(b) < 0 then begin
              label.(b) <- id;
              Queue.push b q
            end)
          (undirected_neighbors a)
      done;
      sizes := (id, !size) :: !sizes
    end
  done;
  match !sizes with
  | [] -> []
  | sizes ->
      (* Smallest id wins ties, i.e. the component of the smallest node. *)
      let best, _ =
        List.fold_left
          (fun (bid, bsz) (id, sz) -> if sz > bsz || (sz = bsz && id < bid) then (id, sz) else (bid, bsz))
          (max_int, -1) sizes
      in
      List.filter (fun v -> label.(v) = best) (List.init n Fun.id)

let strongly_connected_components g =
  let n = Digraph.n_nodes g in
  let index = Array.make n (-1) in
  let low = Array.make n 0 in
  let on_stack = Array.make n false in
  let stack = ref [] in
  let next = ref 0 in
  let comps = ref [] in
  (* Iterative Tarjan to avoid stack overflow on large graphs. *)
  let strongconnect v =
    let call_stack = ref [ (v, Digraph.succs g v) ] in
    index.(v) <- !next;
    low.(v) <- !next;
    incr next;
    stack := v :: !stack;
    on_stack.(v) <- true;
    while not (List.is_empty !call_stack) do
      match !call_stack with
      | [] -> ()
      | (u, remaining) :: rest -> (
          match remaining with
          | [] ->
              call_stack := rest;
              (match rest with
              | (parent, _) :: _ -> low.(parent) <- min low.(parent) low.(u)
              | [] -> ());
              if low.(u) = index.(u) then begin
                let rec pop acc =
                  match !stack with
                  | [] -> acc
                  | w :: tl ->
                      stack := tl;
                      on_stack.(w) <- false;
                      if w = u then w :: acc else pop (w :: acc)
                in
                comps := pop [] :: !comps
              end
          | w :: ws ->
              call_stack := (u, ws) :: rest;
              if index.(w) < 0 then begin
                index.(w) <- !next;
                low.(w) <- !next;
                incr next;
                stack := w :: !stack;
                on_stack.(w) <- true;
                call_stack := (w, Digraph.succs g w) :: !call_stack
              end
              else if on_stack.(w) then low.(u) <- min low.(u) index.(w))
    done
  in
  for v = 0 to n - 1 do
    if index.(v) < 0 then strongconnect v
  done;
  !comps

let is_strongly_connected g keep =
  let nodes = List.filter keep (List.init (Digraph.n_nodes g) Fun.id) in
  match nodes with
  | [] | [ _ ] -> true
  | src :: _ ->
      let forward = bfs_dist_restricted g keep src in
      let backward = bfs_dist_restricted (Digraph.reverse g) keep src in
      List.for_all (fun v -> forward.(v) >= 0 && backward.(v) >= 0) nodes
