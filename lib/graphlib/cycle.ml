let is_simple_closed c =
  let k = Array.length c in
  k > 0
  &&
  let seen = Hashtbl.create (2 * k) in
  Array.for_all
    (fun v ->
      if Hashtbl.mem seen v then false
      else begin
        Hashtbl.add seen v ();
        true
      end)
    c

let edges_of_cycle c =
  let k = Array.length c in
  List.init k (fun i -> (c.(i), c.((i + 1) mod k)))

let is_cycle g c =
  is_simple_closed c
  && List.for_all (fun (u, v) -> Digraph.mem_edge g u v) (edges_of_cycle c)

let is_hamiltonian g ?(subset = fun _ -> true) c =
  is_cycle g c
  &&
  let on_cycle = Hashtbl.create (2 * Array.length c) in
  Array.iter (fun v -> Hashtbl.add on_cycle v ()) c;
  let n = Digraph.n_nodes g in
  let rec check v =
    v >= n || ((not (subset v)) || Hashtbl.mem on_cycle v) && check (v + 1)
  in
  Array.for_all subset c && check 0

let edge_set_of_cycle c =
  let h = Hashtbl.create (2 * Array.length c) in
  List.iter (fun e -> Hashtbl.replace h e ()) (edges_of_cycle c);
  h

let edge_disjoint a b =
  let ea = edge_set_of_cycle a in
  not (List.exists (Hashtbl.mem ea) (edges_of_cycle b))

let rec pairwise_edge_disjoint = function
  | [] | [ _ ] -> true
  | c :: rest -> List.for_all (edge_disjoint c) rest && pairwise_edge_disjoint rest

let avoids_nodes c bad = not (Array.exists bad c)
let avoids_edges c bad = not (List.exists bad (edges_of_cycle c))

let index_of c v =
  let k = Array.length c in
  let rec go i = if i >= k then raise Not_found else if c.(i) = v then i else go (i + 1) in
  go 0

let mem c v = match index_of c v with _ -> true | exception Not_found -> false

let rotate_to c v =
  let k = Array.length c in
  let i = index_of c v in
  Array.init k (fun j -> c.((i + j) mod k))

let successor_in_cycle c v =
  let k = Array.length c in
  c.((index_of c v + 1) mod k)

let of_successor_map ~start succ =
  let seen = Hashtbl.create 64 in
  let rec go acc v steps =
    if steps > 1 lsl 30 then None
    else if v = start && steps > 0 then Some (Array.of_list (List.rev acc))
    else if Hashtbl.mem seen v then None
    else begin
      Hashtbl.add seen v ();
      go (v :: acc) (succ v) (steps + 1)
    end
  in
  go [] start 0

let of_successor_flat_n ~start (succ : Flatarr.t) =
  let n = Flatarr.length succ in
  if start < 0 || start >= n then
    invalid_arg "Cycle.of_successor_flat_n: start out of range";
  (* [of_successor_map] over node ids [0 .. n−1] with the successor map
     given flat: a bitset instead of a Hashtbl and no per-step closure
     call, which matters when the step runs dⁿ times. *)
  let seen = Bitset.create n in
  let buf = Flatarr.create n in
  let len = ref 0 in
  let rec go v =
    if v = start && !len > 0 then Some (Flatarr.sub_to_array buf 0 !len)
    else if v < 0 || v >= n || Bitset.mem seen v then None
    else begin
      Bitset.add seen v;
      buf.{!len} <- v;
      incr len;
      go succ.{v}
    end
  in
  go start

let of_successor_array_n ~start (succ : int array) =
  let n = Array.length succ in
  if start < 0 || start >= n then
    invalid_arg "Cycle.of_successor_array_n: start out of range";
  (* The walk of [of_successor_flat_n] over a heap successor map. *)
  let seen = Bitset.create n in
  let buf = Array.make n 0 in
  let len = ref 0 in
  let rec go v =
    if v = start && !len > 0 then Some (Array.sub buf 0 !len)
    else if v < 0 || v >= n || Bitset.mem seen v then None
    else begin
      Bitset.add seen v;
      buf.(!len) <- v;
      incr len;
      go succ.(v)
    end
  in
  go start
