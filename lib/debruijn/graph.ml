let b p = Graphlib.Digraph.of_successors p.Word.size (Word.successors p)

let ub p =
  let n = p.Word.size in
  let bld = Graphlib.Digraph.Builder.create n in
  let seen = Hashtbl.create (4 * n) in
  for x = 0 to n - 1 do
    List.iter
      (fun y ->
        if x <> y then begin
          let key = (min x y, max x y) in
          if not (Hashtbl.mem seen key) then begin
            Hashtbl.add seen key ();
            Graphlib.Digraph.Builder.add_edge bld x y;
            Graphlib.Digraph.Builder.add_edge bld y x
          end
        end)
      (Word.successors p x)
  done;
  Graphlib.Digraph.Builder.build bld

let degree_census g =
  let tbl = Hashtbl.create 16 in
  for v = 0 to Graphlib.Digraph.n_nodes g - 1 do
    let d = Graphlib.Digraph.out_degree g v in
    Hashtbl.replace tbl d (1 + Option.value ~default:0 (Hashtbl.find_opt tbl d))
  done;
  List.sort
    (fun (d1, c1) (d2, c2) ->
      match Int.compare d1 d2 with 0 -> Int.compare c1 c2 | c -> c)
    (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let edge_as_higher_node p (x, y) =
  if not (List.mem y (Word.successors p x)) then invalid_arg "Graph.edge_as_higher_node: not an edge";
  (* x = x₁…xₙ, y = x₂…xₙa: the (n+1)-word is x followed by a. *)
  (x * p.Word.d) + Word.last_digit p y

let higher_node_as_edge p z =
  if z < 0 || z >= p.Word.size * p.Word.d then invalid_arg "Graph.higher_node_as_edge";
  (z / p.Word.d, z mod p.Word.size)

let cycle_to_lower_circuit p c =
  if p.Word.n < 2 then invalid_arg "Graph.cycle_to_lower_circuit: n < 2";
  let firsts = Array.to_list (Array.map (Word.prefix p) c) in
  match firsts with
  | [] -> []
  | first :: _ -> firsts @ [ first ]
