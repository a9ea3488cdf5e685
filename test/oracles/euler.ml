module Digraph = Graphlib.Digraph

let edges_in_one_component g =
  let label, _ = Traversal.weak_components g in
  let witness = ref (-1) in
  try
    Digraph.iter_edges
      (fun u _ ->
        if !witness < 0 then witness := label.(u)
        else if label.(u) <> !witness then raise Exit)
      g;
    true
  with Exit -> false

let is_eulerian g = Digraph.is_balanced g && edges_in_one_component g

(* Hierholzer from [start], consuming edges from the mutable copy [adj].
   Returns the circuit as a node list starting and ending at [start]. *)
let hierholzer adj start =
  let path = ref [] in
  let stack = ref [ start ] in
  while not (List.is_empty !stack) do
    match !stack with
    | [] -> ()
    | v :: rest -> (
        match adj.(v) with
        | [] ->
            path := v :: !path;
            stack := rest
        | w :: ws ->
            adj.(v) <- ws;
            stack := w :: !stack)
  done;
  !path

let euler_circuit g =
  if Digraph.n_edges g = 0 then Some []
  else if not (is_eulerian g) then None
  else begin
    let adj = Array.init (Digraph.n_nodes g) (Digraph.succs g) in
    let start =
      let rec find v = if not (List.is_empty adj.(v)) then v else find (v + 1) in
      find 0
    in
    Some (hierholzer adj start)
  end

let circuit_partition g =
  if not (Digraph.is_balanced g) then invalid_arg "Euler.circuit_partition: not balanced";
  let adj = Array.init (Digraph.n_nodes g) (Digraph.succs g) in
  let circuits = ref [] in
  for v = 0 to Digraph.n_nodes g - 1 do
    while not (List.is_empty adj.(v)) do
      circuits := hierholzer adj v :: !circuits
    done
  done;
  List.rev !circuits

let is_circuit g path =
  match path with
  | [] -> true
  | [ _ ] -> false
  | first :: _ ->
      let rec last = function [ x ] -> x | _ :: tl -> last tl | [] -> assert false in
      last path = first
      &&
      (* In a multigraph a circuit may use a repeated edge once per
         copy, so bound usage by the edge's multiplicity. *)
      let capacity = Hashtbl.create 64 in
      Digraph.iter_edges
        (fun u v ->
          Hashtbl.replace capacity (u, v)
            (1 + Option.value ~default:0 (Hashtbl.find_opt capacity (u, v))))
        g;
      let rec check = function
        | a :: (b :: _ as tl) -> (
            match Hashtbl.find_opt capacity (a, b) with
            | Some c when c > 0 ->
                Hashtbl.replace capacity (a, b) (c - 1);
                check tl
            | _ -> false)
        | _ -> true
      in
      check path
