(* The seed's list-and-Hashtbl centralized pipeline, kept intact as the
   oracle the implicit pipeline (Bstar/Adjacency/Spanning/Embed) is
   pinned against, and as the `scale` bench section's baseline.  It materializes
   B(d,n) as a Digraph and mirrors the original stage logic verbatim;
   nothing here should be "optimized" — its value is being the old
   behavior. *)

module W = Debruijn.Word
module Nk = Debruijn.Necklace
module DG = Graphlib.Digraph
module Tr = Traversal

type t = {
  p : W.params;
  root : int;
  size : int;
  in_bstar : bool array;
  successor : int array;
  cycle : int array;
}

let embed ?root_hint p ~faults =
  let graph = Debruijn.Graph.b p in
  let necklace_faulty = Nk.mark_faulty_necklaces p faults in
  let members =
    Tr.largest_weak_component graph (fun v -> not necklace_faulty.(v))
  in
  match members with
  | [] -> None
  | _ ->
      let in_bstar = Array.make p.W.size false in
      List.iter (fun v -> in_bstar.(v) <- true) members;
      let root =
        match root_hint with
        | Some h when h >= 0 && h < p.W.size && in_bstar.(Nk.canonical p h) ->
            Nk.canonical p h
        | _ -> List.fold_left min max_int members
      in
      (* Necklace index. *)
      let reps =
        Array.of_list
          (List.filter (fun r -> in_bstar.(r)) (Nk.all_representatives p))
      in
      let index = Hashtbl.create (2 * Array.length reps) in
      Array.iteri (fun i r -> Hashtbl.add index r i) reps;
      let idx_of_node = Array.make p.W.size (-1) in
      Array.iter
        (fun r ->
          List.iter
            (fun x -> idx_of_node.(x) <- Hashtbl.find index r)
            (Nk.nodes p r))
        reps;
      let node_with_prefix idx w =
        let rec go b =
          if b >= p.W.d then None
          else
            let x = W.snoc p w b in
            if idx_of_node.(x) = idx then Some x else go (b + 1)
        in
        go 0
      in
      (* Steps 1.1/1.2: T′ then T. *)
      let in_b v = in_bstar.(v) in
      let dist = Tr.bfs_dist_restricted graph in_b root in
      let node_parent = Array.make p.W.size (-1) in
      for v = 0 to p.W.size - 1 do
        if in_b v && v <> root && dist.(v) > 0 then begin
          let best = ref max_int in
          List.iter
            (fun u ->
              if in_b u && dist.(u) = dist.(v) - 1 && u < !best then best := u)
            (DG.preds graph v);
          if !best < max_int then node_parent.(v) <- !best
        end
      done;
      let m = Array.length reps in
      let root_idx = idx_of_node.(root) in
      let parent = Array.make m (-1) in
      let label = Array.make m (-1) in
      let chosen = Array.make m (-1) in
      for i = 0 to m - 1 do
        let members = Nk.nodes p reps.(i) in
        let y =
          List.fold_left
            (fun best v ->
              match best with
              | None -> Some v
              | Some b ->
                  if dist.(v) < dist.(b) || (dist.(v) = dist.(b) && v < b) then
                    Some v
                  else Some b)
            None (List.sort compare members)
        in
        match y with
        | None -> assert false
        | Some y ->
            chosen.(i) <- y;
            if i <> root_idx then begin
              let par_node = node_parent.(y) in
              assert (par_node >= 0);
              parent.(i) <- idx_of_node.(par_node);
              label.(i) <- W.prefix p y
            end
      done;
      chosen.(root_idx) <- root;
      let tree_edges =
        List.filter_map
          (fun i ->
            if i = root_idx then None else Some (parent.(i), i, label.(i)))
          (List.init m Fun.id)
      in
      (* Step 2: w-cycles in increasing representative order. *)
      let by_label = Hashtbl.create 16 in
      List.iter
        (fun (par, child, w) ->
          let cur = Option.value ~default:[] (Hashtbl.find_opt by_label w) in
          let cur = if List.mem par cur then cur else par :: cur in
          Hashtbl.replace by_label w (child :: cur))
        tree_edges;
      let groups =
        Hashtbl.fold
          (fun w members acc ->
            ( w,
              List.sort (fun a b -> compare reps.(a) reps.(b)) members )
            :: acc)
          by_label []
        |> List.sort compare
      in
      let out_edge = Hashtbl.create 64 in
      List.iter
        (fun (w, members) ->
          let arr = Array.of_list members in
          let k = Array.length arr in
          Array.iteri
            (fun i idx -> Hashtbl.replace out_edge (idx, w) arr.((i + 1) mod k))
            arr)
        groups;
      (* Step 3: the successor rule. *)
      let successor = Array.make p.W.size (-1) in
      for x = 0 to p.W.size - 1 do
        if in_bstar.(x) then begin
          let w = W.suffix p x in
          let idx = idx_of_node.(x) in
          match Hashtbl.find_opt out_edge (idx, w) with
          | Some next_idx -> (
              match node_with_prefix next_idx w with
              | Some target -> successor.(x) <- target
              | None -> assert false)
          | None -> successor.(x) <- W.rotl p x
        end
      done;
      let cycle =
        match
          Graphlib.Cycle.of_successor_map ~start:root (fun v -> successor.(v))
        with
        | Some c -> c
        | None ->
            failwith "Ffc.Reference: successor map did not close into a cycle"
      in
      Some
        { p; root; size = List.length members; in_bstar; successor; cycle }
