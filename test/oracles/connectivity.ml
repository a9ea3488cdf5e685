(* Unit-capacity max-flow (Edmonds–Karp) on an adjacency-hashtable
   residual network.  Sizes here are experiment-scale, so clarity wins
   over asymptotics. *)

module Digraph = Graphlib.Digraph

let infinity_cap = max_int / 4

type network = {
  n : int;
  cap : (int * int, int) Hashtbl.t;
  adj : int list array;  (* neighbors in either direction (residual arcs) *)
}

let make_network n =
  { n; cap = Hashtbl.create (8 * n); adj = Array.make n [] }

let add_cap net u v c =
  let cur = Option.value ~default:0 (Hashtbl.find_opt net.cap (u, v)) in
  if cur = 0 && c > 0 && not (List.mem v net.adj.(u)) then begin
    net.adj.(u) <- v :: net.adj.(u);
    net.adj.(v) <- u :: net.adj.(v)  (* residual arc *)
  end;
  Hashtbl.replace net.cap (u, v) (cur + c)

let cap_of net u v = Option.value ~default:0 (Hashtbl.find_opt net.cap (u, v))

let max_flow net s t =
  let flow = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    (* BFS for an augmenting path in the residual graph *)
    let parent = Array.make net.n (-1) in
    parent.(s) <- s;
    let q = Queue.create () in
    Queue.push s q;
    while (not (Queue.is_empty q)) && parent.(t) < 0 do
      let u = Queue.pop q in
      List.iter
        (fun v ->
          if parent.(v) < 0 && cap_of net u v > 0 then begin
            parent.(v) <- u;
            Queue.push v q
          end)
        net.adj.(u)
    done;
    if parent.(t) < 0 then continue_ := false
    else begin
      (* bottleneck *)
      let rec bottleneck v acc =
        if v = s then acc else bottleneck parent.(v) (min acc (cap_of net parent.(v) v))
      in
      let b = bottleneck t infinity_cap in
      let rec push v =
        if v <> s then begin
          let u = parent.(v) in
          Hashtbl.replace net.cap (u, v) (cap_of net u v - b);
          Hashtbl.replace net.cap (v, u) (cap_of net v u + b);
          push u
        end
      in
      push t;
      flow := !flow + b
    end
  done;
  !flow

let max_edge_disjoint_paths g u v =
  if u = v then invalid_arg "Connectivity: u = v";
  let n = Digraph.n_nodes g in
  let net = make_network n in
  Digraph.iter_edges (fun a b -> if a <> b then add_cap net a b 1) g;
  max_flow net u v

let max_node_disjoint_paths g u v =
  if u = v then invalid_arg "Connectivity: u = v";
  let n = Digraph.n_nodes g in
  (* split w into w_in = w and w_out = w + n, capacity 1; u and v keep
     infinite internal capacity *)
  let net = make_network (2 * n) in
  for w = 0 to n - 1 do
    add_cap net w (w + n) (if w = u || w = v then infinity_cap else 1)
  done;
  (* Unit edge capacities: internal nodes already bound every shared
     edge, and a direct u→v edge must count as exactly one path rather
     than slip past both splits with infinite capacity. *)
  Digraph.iter_edges (fun a b -> if a <> b then add_cap net (a + n) b 1) g;
  max_flow net (u + n) v

let edge_connectivity g =
  let n = Digraph.n_nodes g in
  if n < 2 then 0
  else begin
    let best = ref max_int in
    for u = 0 to n - 1 do
      for v = 0 to n - 1 do
        if u <> v then best := min !best (max_edge_disjoint_paths g u v)
      done
    done;
    !best
  end

let node_connectivity g =
  let n = Digraph.n_nodes g in
  if n < 2 then 0
  else begin
    let best = ref max_int in
    let nonadjacent_found = ref false in
    for u = 0 to n - 1 do
      for v = 0 to n - 1 do
        if u <> v && not (Digraph.mem_edge g u v) then begin
          nonadjacent_found := true;
          best := min !best (max_node_disjoint_paths g u v)
        end
      done
    done;
    if !nonadjacent_found then !best else n - 1
  end
