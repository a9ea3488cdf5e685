type t = {
  succ : int list array;
  mutable pred : int list array option;  (* built lazily *)
  n_edges : int;
}

module Builder = struct
  type graph = t
  type t = { adj : int list array; mutable edges : int }

  let create n =
    if n < 0 then invalid_arg "Digraph.Builder.create: negative size";
    { adj = Array.make n []; edges = 0 }

  let add_edge b u v =
    let n = Array.length b.adj in
    if u < 0 || u >= n || v < 0 || v >= n then invalid_arg "Digraph.Builder.add_edge: out of range";
    b.adj.(u) <- v :: b.adj.(u);
    b.edges <- b.edges + 1

  let build b : graph =
    (* Reverse each list so successors come out in insertion order —
       deterministic traversals depend on it. *)
    { succ = Array.map List.rev b.adj; pred = None; n_edges = b.edges }
end

let of_edges n es =
  let b = Builder.create n in
  List.iter (fun (u, v) -> Builder.add_edge b u v) es;
  Builder.build b

let of_successors n f =
  let b = Builder.create n in
  for u = 0 to n - 1 do
    List.iter (fun v -> Builder.add_edge b u v) (f u)
  done;
  Builder.build b

let n_nodes g = Array.length g.succ
let n_edges g = g.n_edges
let succs g u = g.succ.(u)

let build_preds g =
  match g.pred with
  | Some p -> p
  | None ->
      let p = Array.make (n_nodes g) [] in
      for u = n_nodes g - 1 downto 0 do
        List.iter (fun v -> p.(v) <- u :: p.(v)) (List.rev g.succ.(u))
      done;
      (* Each pred list is now in increasing-source insertion order. *)
      g.pred <- Some p;
      p

let preds g u = (build_preds g).(u)
let out_degree g u = List.length g.succ.(u)
let in_degree g u = List.length (preds g u)
(* Monomorphic scan: [List.mem] would make one polymorphic-compare C
   call per out-neighbour, and the simulator checks every send here. *)
let rec mem_int (v : int) = function [] -> false | w :: ws -> w = v || mem_int v ws

let mem_edge g u v = mem_int v g.succ.(u)

let iter_edges f g =
  Array.iteri (fun u vs -> List.iter (fun v -> f u v) vs) g.succ

let fold_edges f init g =
  let acc = ref init in
  iter_edges (fun u v -> acc := f !acc u v) g;
  !acc

let edges g = List.rev (fold_edges (fun acc u v -> (u, v) :: acc) [] g)

let remove_nodes g faulty =
  let b = Builder.create (n_nodes g) in
  iter_edges (fun u v -> if not (faulty u || faulty v) then Builder.add_edge b u v) g;
  Builder.build b

let remove_edges g bad =
  let b = Builder.create (n_nodes g) in
  iter_edges (fun u v -> if not (bad (u, v)) then Builder.add_edge b u v) g;
  Builder.build b

let reverse g =
  let b = Builder.create (n_nodes g) in
  iter_edges (fun u v -> Builder.add_edge b v u) g;
  Builder.build b

let undirected_view g =
  let b = Builder.create (n_nodes g) in
  iter_edges
    (fun u v ->
      Builder.add_edge b u v;
      if u <> v then Builder.add_edge b v u)
    g;
  Builder.build b

let is_balanced g =
  let n = n_nodes g in
  let rec check u = u >= n || (in_degree g u = out_degree g u && check (u + 1)) in
  check 0
