(* Tests for the generic digraph substrate. *)

module D = Graphlib.Digraph
module T = Oracles.Traversal
module E = Graphlib.Euler
module C = Graphlib.Cycle

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* A directed 5-cycle. *)
let ring5 = D.of_edges 5 [ (0, 1); (1, 2); (2, 3); (3, 4); (4, 0) ]

(* Two triangles sharing no node, plus an isolated node 6. *)
let two_triangles =
  D.of_edges 7 [ (0, 1); (1, 2); (2, 0); (3, 4); (4, 5); (5, 3) ]

let test_build () =
  check_int "nodes" 5 (D.n_nodes ring5);
  check_int "edges" 5 (D.n_edges ring5);
  Alcotest.(check (list int)) "succ 0" [ 1 ] (D.succs ring5 0);
  Alcotest.(check (list int)) "pred 0" [ 4 ] (D.preds ring5 0);
  check_bool "mem" true (D.mem_edge ring5 2 3);
  check_bool "not mem" false (D.mem_edge ring5 3 2);
  check_int "out degree" 1 (D.out_degree ring5 0);
  check_int "in degree" 1 (D.in_degree ring5 0)

let test_parallel_and_loops () =
  let g = D.of_edges 2 [ (0, 0); (0, 1); (0, 1) ] in
  check_int "edges counted with multiplicity" 3 (D.n_edges g);
  check_int "out degree with multiplicity" 3 (D.out_degree g 0);
  check_int "in degree of loop" 1 (D.in_degree g 0)

let test_remove_nodes () =
  let g = D.remove_nodes ring5 (fun v -> v = 2) in
  check_int "edges after removal" 3 (D.n_edges g);
  check_bool "edge into removed gone" false (D.mem_edge g 1 2);
  check_bool "edge out of removed gone" false (D.mem_edge g 2 3);
  check_bool "others kept" true (D.mem_edge g 0 1)

let test_remove_edges () =
  let g = D.remove_edges ring5 (fun e -> e = (1, 2)) in
  check_int "edges" 4 (D.n_edges g);
  check_bool "gone" false (D.mem_edge g 1 2)

let test_reverse () =
  let r = D.reverse ring5 in
  check_bool "reversed edge" true (D.mem_edge r 1 0);
  check_bool "original edge gone" false (D.mem_edge r 0 1);
  check_int "same count" 5 (D.n_edges r)

let test_balanced () =
  check_bool "ring balanced" true (D.is_balanced ring5);
  check_bool "path not balanced" false (D.is_balanced (D.of_edges 3 [ (0, 1); (1, 2) ]))

let test_bfs () =
  let dist = T.bfs_dist ring5 0 in
  Alcotest.(check (array int)) "distances" [| 0; 1; 2; 3; 4 |] dist;
  let dist = T.bfs_dist two_triangles 0 in
  check_int "unreachable" (-1) dist.(3);
  check_int "self" 0 dist.(0)

let test_bfs_restricted () =
  let dist = T.bfs_dist_restricted ring5 (fun v -> v <> 2) 0 in
  check_int "reaches 1" 1 dist.(1);
  check_int "blocked" (-1) dist.(3)

let test_bfs_tree () =
  (* Diamond: 0 -> {1,2} -> 3: parent of 3 must be the minimal
     predecessor at depth 1, namely 1. *)
  let g = D.of_edges 4 [ (0, 1); (0, 2); (1, 3); (2, 3) ] in
  let dist, parent = T.bfs_tree g 0 in
  check_int "dist 3" 2 dist.(3);
  check_int "parent of 3 minimal" 1 parent.(3);
  check_int "parent of root" (-1) parent.(0);
  check_int "parent of 1" 0 parent.(1)

let test_eccentricity () =
  check_int "ring ecc" 4 (T.eccentricity ring5 0);
  check_int "diameter" 4 (T.diameter_from_all ring5)

let test_weak_components () =
  let label, count = T.weak_components two_triangles in
  check_int "count (incl. isolated)" 3 count;
  check_bool "same comp" true (label.(0) = label.(2));
  check_bool "diff comp" true (label.(0) <> label.(3));
  check_bool "isolated its own" true (label.(6) <> label.(0) && label.(6) <> label.(3))

let test_largest_weak_component () =
  let g = D.of_edges 6 [ (0, 1); (1, 2); (2, 0); (3, 4) ] in
  Alcotest.(check (list int)) "largest" [ 0; 1; 2 ] (T.largest_weak_component g (fun _ -> true));
  Alcotest.(check (list int)) "with exclusion" [ 3; 4 ]
    (T.largest_weak_component g (fun v -> v >= 3));
  Alcotest.(check (list int)) "empty" [] (T.largest_weak_component g (fun _ -> false))

let test_scc () =
  let g = D.of_edges 5 [ (0, 1); (1, 2); (2, 0); (2, 3); (3, 4) ] in
  let comps = List.map (List.sort compare) (T.strongly_connected_components g) in
  let comps = List.sort compare comps in
  Alcotest.(check (list (list int))) "sccs" [ [ 0; 1; 2 ]; [ 3 ]; [ 4 ] ] comps

let test_strongly_connected () =
  check_bool "ring" true (T.is_strongly_connected ring5 (fun _ -> true));
  check_bool "two triangles" false (T.is_strongly_connected two_triangles (fun _ -> true));
  check_bool "restricted triangle" true (T.is_strongly_connected two_triangles (fun v -> v < 3));
  check_bool "single node" true (T.is_strongly_connected ring5 (fun v -> v = 0))

let test_euler_ring () =
  check_bool "eulerian" true (E.is_eulerian ring5);
  match E.euler_circuit ring5 with
  | None -> Alcotest.fail "expected circuit"
  | Some c ->
      check_int "length" 6 (List.length c);
      check_bool "is circuit" true (E.is_circuit ring5 c)

let test_euler_eight () =
  (* Figure-eight: two loops sharing node 0; Eulerian. *)
  let g = D.of_edges 3 [ (0, 1); (1, 0); (0, 2); (2, 0) ] in
  match E.euler_circuit g with
  | None -> Alcotest.fail "expected circuit"
  | Some c ->
      check_int "uses all edges" 5 (List.length c);
      check_bool "valid" true (E.is_circuit g c)

let test_euler_none () =
  let path = D.of_edges 3 [ (0, 1); (1, 2) ] in
  check_bool "not eulerian" false (E.is_eulerian path);
  Alcotest.(check bool) "no circuit" true (E.euler_circuit path = None);
  (* Balanced but disconnected edges: no single Euler circuit. *)
  check_bool "two triangles not eulerian" false (E.is_eulerian two_triangles);
  Alcotest.(check bool) "no circuit for two triangles" true (E.euler_circuit two_triangles = None)

let test_circuit_partition () =
  let parts = E.circuit_partition two_triangles in
  check_int "two circuits" 2 (List.length parts);
  List.iter (fun c -> check_bool "each valid" true (E.is_circuit two_triangles c)) parts;
  let total = List.fold_left (fun acc c -> acc + List.length c - 1) 0 parts in
  check_int "edges covered" (D.n_edges two_triangles) total

let test_cycle_basic () =
  check_bool "ring cycle" true (C.is_cycle ring5 [| 0; 1; 2; 3; 4 |]);
  check_bool "rotated" true (C.is_cycle ring5 [| 2; 3; 4; 0; 1 |]);
  check_bool "wrong order" false (C.is_cycle ring5 [| 0; 2; 1; 3; 4 |]);
  check_bool "repeat" false (C.is_cycle ring5 [| 0; 1; 2; 3; 0 |]);
  check_bool "empty" false (C.is_cycle ring5 [||]);
  check_bool "hamiltonian" true (C.is_hamiltonian ring5 [| 0; 1; 2; 3; 4 |]);
  check_bool "not hamiltonian (subset)" false
    (C.is_hamiltonian two_triangles [| 0; 1; 2 |]);
  check_bool "hamiltonian on subset" true
    (C.is_hamiltonian two_triangles ~subset:(fun v -> v < 3) [| 0; 1; 2 |])

let test_cycle_loop () =
  let g = D.of_edges 1 [ (0, 0) ] in
  check_bool "self loop cycle" true (C.is_cycle g [| 0 |]);
  check_bool "no loop" false (C.is_cycle ring5 [| 0 |])

let test_cycle_edges () =
  Alcotest.(check (list (pair int int))) "edges" [ (0, 1); (1, 2); (2, 0) ]
    (C.edges_of_cycle [| 0; 1; 2 |]);
  check_bool "disjoint" true (C.edge_disjoint [| 0; 1; 2 |] [| 3; 4; 5 |]);
  check_bool "not disjoint" false (C.edge_disjoint [| 0; 1; 2 |] [| 1; 2; 5 |]);
  check_bool "pairwise" true
    (C.pairwise_edge_disjoint [ [| 0; 1 |]; [| 2; 3 |]; [| 4; 5 |] ]);
  check_bool "pairwise fail" false
    (C.pairwise_edge_disjoint [ [| 0; 1 |]; [| 2; 3 |]; [| 0; 1; 2 |] ])

let test_cycle_avoid () =
  check_bool "avoids nodes" true (C.avoids_nodes [| 0; 1; 2 |] (fun v -> v > 5));
  check_bool "hits node" false (C.avoids_nodes [| 0; 1; 2 |] (fun v -> v = 1));
  check_bool "avoids edges" true (C.avoids_edges [| 0; 1; 2 |] (fun e -> e = (1, 0)));
  check_bool "hits wrap edge" false (C.avoids_edges [| 0; 1; 2 |] (fun e -> e = (2, 0)))

let test_cycle_rotate () =
  Alcotest.(check (array int)) "rotate" [| 2; 3; 4; 0; 1 |] (C.rotate_to [| 0; 1; 2; 3; 4 |] 2);
  check_int "successor" 3 (C.successor_in_cycle [| 0; 1; 2; 3; 4 |] 2);
  check_int "wrap successor" 0 (C.successor_in_cycle [| 0; 1; 2; 3; 4 |] 4);
  Alcotest.check_raises "absent" Not_found (fun () -> ignore (C.rotate_to [| 0; 1 |] 9))

let test_of_successor_map () =
  (match C.of_successor_map ~start:0 (fun v -> (v + 1) mod 5) with
  | Some c -> Alcotest.(check (array int)) "mod ring" [| 0; 1; 2; 3; 4 |] c
  | None -> Alcotest.fail "expected cycle");
  (* rho-shaped successor map never returns: 0 -> 1 -> 2 -> 1 *)
  Alcotest.(check bool) "rho fails" true
    (C.of_successor_map ~start:0 (fun v -> if v = 0 then 1 else if v = 1 then 2 else 1) = None)

let test_bfs_tree_unreachable () =
  (* 3 ⇄ 4 is a separate component: bfs_tree must leave parents at −1
     without ever scanning their predecessor lists. *)
  let g = D.of_edges 5 [ (0, 1); (1, 2); (3, 4); (4, 3) ] in
  let dist, parent = T.bfs_tree g 0 in
  check_int "unreached dist" (-1) dist.(3);
  check_int "unreached parent 3" (-1) parent.(3);
  check_int "unreached parent 4" (-1) parent.(4);
  check_int "reached parent" 1 parent.(2)

let test_bfs_tree_shared_preds () =
  (* Siblings 3 and 4 share predecessor set {1, 2}: both must pick the
     minimal predecessor 1; node 5 has only 2. *)
  let g = D.of_edges 6 [ (0, 1); (0, 2); (1, 3); (2, 3); (1, 4); (2, 4); (2, 5) ] in
  let _, parent = T.bfs_tree g 0 in
  check_int "3 minimal parent" 1 parent.(3);
  check_int "4 minimal parent" 1 parent.(4);
  check_int "5 sole parent" 2 parent.(5);
  Alcotest.check_raises "source out of range"
    (Invalid_argument "Traversal.bfs_tree: source out of range") (fun () ->
      ignore (T.bfs_tree g 6))

(* ------------------------------------------------------------------ *)
(* bitset *)

module BS = Graphlib.Bitset

let test_bitset_basic () =
  let b = BS.create 70 in
  check_int "length" 70 (BS.length b);
  check_bool "fresh empty" false (BS.mem b 0);
  List.iter (BS.add b) [ 0; 7; 8; 69 ];
  List.iter (fun i -> check_bool (string_of_int i) true (BS.mem b i)) [ 0; 7; 8; 69 ];
  check_bool "unset" false (BS.mem b 9);
  check_int "cardinal" 4 (BS.cardinal b);
  BS.remove b 7;
  check_bool "removed" false (BS.mem b 7);
  check_int "cardinal after remove" 3 (BS.cardinal b);
  BS.clear b;
  check_int "cleared" 0 (BS.cardinal b);
  Alcotest.check_raises "out of range" (Invalid_argument "Bitset: index out of range")
    (fun () -> ignore (BS.mem b 70));
  Alcotest.check_raises "negative" (Invalid_argument "Bitset: index out of range")
    (fun () -> BS.add b (-1))

(* ------------------------------------------------------------------ *)
(* itopo: implicit-topology traversals *)

module It = Graphlib.Itopo
module Fa = Graphlib.Flatarr

let isuccs g v f = List.iter f (D.succs g v)
let ipreds g v f = List.iter f (D.preds g v)

let test_itopo_bfs_ring () =
  let r = It.bfs ~n:5 ~succs:(isuccs ring5) 0 in
  Alcotest.(check (array int)) "dist" [| 0; 1; 2; 3; 4 |] (Fa.to_array r.It.dist);
  check_int "count" 5 r.It.count;
  Alcotest.(check (array int)) "order" [| 0; 1; 2; 3; 4 |]
    (Fa.sub_to_array r.It.order 0 r.It.count);
  check_int "ecc" 4 (It.eccentricity ~n:5 ~succs:(isuccs ring5) 0);
  (* keep predicate cuts the ring *)
  let r = It.bfs ~n:5 ~succs:(isuccs ring5) ~keep:(fun v -> v <> 2) 0 in
  check_int "blocked dist" (-1) r.It.dist.{3};
  check_int "blocked count" 2 r.It.count;
  (* source failing keep reaches nothing *)
  let r = It.bfs ~n:5 ~succs:(isuccs ring5) ~keep:(fun v -> v <> 0) 0 in
  check_int "dead source" 0 r.It.count

let test_itopo_component_members () =
  (* 0 → {1, 2}, 2 → 3: symmetric BFS from 3 discovers 3, then its
     predecessor 2, then 2's predecessor 0, then 0's successor 1 — the
     exact discovery order is part of the contract. *)
  let g = D.of_edges 4 [ (0, 1); (0, 2); (2, 3) ] in
  Alcotest.(check (array int)) "discovery order" [| 3; 2; 0; 1 |]
    (It.component_members ~n:4 ~succs:(isuccs g) ~preds:(ipreds g) 3);
  Alcotest.(check (array int)) "excluded source" [||]
    (It.component_members ~n:4 ~succs:(isuccs g) ~preds:(ipreds g)
       ~keep:(fun v -> v <> 3) 3)

let test_itopo_largest_weak () =
  let g = D.of_edges 6 [ (0, 1); (1, 2); (2, 0); (3, 4) ] in
  let sorted a = List.sort compare (Array.to_list a) in
  Alcotest.(check (list int)) "largest" [ 0; 1; 2 ]
    (sorted
       (It.largest_weak_component ~n:6 ~succs:(isuccs g) ~preds:(ipreds g) ()));
  Alcotest.(check (list int)) "with exclusion" [ 3; 4 ]
    (sorted
       (It.largest_weak_component ~n:6 ~succs:(isuccs g) ~preds:(ipreds g)
          ~keep:(fun v -> v >= 3) ()));
  Alcotest.(check (list int)) "empty" []
    (sorted
       (It.largest_weak_component ~n:6 ~succs:(isuccs g) ~preds:(ipreds g)
          ~keep:(fun _ -> false) ()))

let test_itopo_no_preds () =
  (* B*-style usage: every weak component strongly connected, so the
     successor-only sweep must find the same component set. *)
  let g = D.of_edges 6 [ (0, 1); (1, 2); (2, 0); (3, 4); (4, 3) ] in
  let sorted a = List.sort compare (Array.to_list a) in
  Alcotest.(check (list int)) "succ-only sweep" [ 0; 1; 2 ]
    (sorted
       (It.largest_weak_component ~n:6 ~succs:(isuccs g) ~preds:It.no_preds ()));
  check_bool "strongly connected" true
    (It.is_strongly_connected ~n:6 ~succs:(isuccs g) ~preds:(ipreds g)
       ~keep:(fun v -> v < 3) ());
  check_bool "not strongly connected" false
    (It.is_strongly_connected ~n:6 ~succs:(isuccs g) ~preds:(ipreds g) ())

(* ------------------------------------------------------------------ *)
(* connectivity *)

module Conn = Graphlib.Connectivity

let test_connectivity_ring () =
  check_int "ring kappa" 1 (Conn.node_connectivity ring5);
  check_int "ring lambda" 1 (Conn.edge_connectivity ring5);
  check_int "disjoint paths on ring" 1 (Conn.max_edge_disjoint_paths ring5 0 3)

let test_connectivity_complete () =
  let k4 = D.of_successors 4 (fun v -> List.filter (fun w -> w <> v) [ 0; 1; 2; 3 ]) in
  check_int "complete digraph kappa = n-1" 3 (Conn.node_connectivity k4);
  check_int "complete digraph lambda" 3 (Conn.edge_connectivity k4);
  (* adjacent pair: the direct edge counts as exactly one path *)
  check_int "adjacent pair disjoint paths" 3 (Conn.max_node_disjoint_paths k4 0 1);
  check_int "ring adjacent pair" 1 (Conn.max_node_disjoint_paths ring5 0 1)

let test_connectivity_disconnected () =
  check_int "two triangles lambda" 0 (Conn.edge_connectivity two_triangles)

let test_connectivity_bidirected_cycle () =
  (* undirected 6-cycle: kappa = lambda = 2 *)
  let g =
    D.of_edges 6
      (List.concat_map (fun i -> [ (i, (i + 1) mod 6); ((i + 1) mod 6, i) ]) (List.init 6 Fun.id))
  in
  check_int "kappa" 2 (Conn.node_connectivity g);
  check_int "lambda" 2 (Conn.edge_connectivity g)

let test_connectivity_cut_vertex () =
  (* two triangles sharing node 0 (bidirected): kappa = 1 *)
  let tri a b c = [ (a, b); (b, a); (b, c); (c, b); (c, a); (a, c) ] in
  let g = D.of_edges 5 (tri 0 1 2 @ tri 0 3 4) in
  check_int "cut vertex" 1 (Conn.node_connectivity g);
  check_int "lambda 2" 2 (Conn.edge_connectivity g)

let test_connectivity_de_bruijn () =
  (* the thesis's Chapter 1/[EH85] reliability facts *)
  List.iter
    (fun (d, n) ->
      let p = Debruijn.Word.params ~d ~n in
      check_int
        (Printf.sprintf "kappa B(%d,%d) = d-1" d n)
        (d - 1)
        (Conn.node_connectivity (Debruijn.Graph.b p));
      check_int
        (Printf.sprintf "kappa UB(%d,%d) = 2d-2" d n)
        ((2 * d) - 2)
        (Conn.node_connectivity (Debruijn.Graph.ub p)))
    [ (2, 3); (3, 2); (4, 2) ]

(* ------------------------------------------------------------------ *)
(* properties *)

let random_graph_gen =
  QCheck.Gen.(
    int_range 2 30 >>= fun n ->
    list_size (int_range 0 120) (pair (int_range 0 (n - 1)) (int_range 0 (n - 1)))
    >>= fun es -> return (n, es))

let arb_graph = QCheck.make random_graph_gen

let qsuite =
  let open QCheck in
  [
    Test.make ~name:"bfs distances are monotone along edges" ~count:200 arb_graph
      (fun (n, es) ->
        let g = D.of_edges n es in
        let dist = T.bfs_dist g 0 in
        List.for_all
          (fun (u, v) -> dist.(u) < 0 || (dist.(v) >= 0 && dist.(v) <= dist.(u) + 1))
          es);
    Test.make ~name:"reverse twice is identity on edge multiset" ~count:200 arb_graph
      (fun (n, es) ->
        let g = D.of_edges n es in
        let norm g = List.sort compare (D.edges g) in
        norm (D.reverse (D.reverse g)) = norm g);
    Test.make ~name:"circuit_partition covers all edges of balanced graphs" ~count:200
      arb_graph
      (fun (n, es) ->
        (* symmetrize to force balance *)
        let es = List.concat_map (fun (u, v) -> [ (u, v); (v, u) ]) es in
        let g = D.of_edges n es in
        let parts = E.circuit_partition g in
        (* balanced, so Eulerian iff every edge lies in one weak
           component of the oracle's partition *)
        let label, _ = T.weak_components g in
        let one_component =
          match D.edges g with
          | [] -> true
          | (u, _) :: rest -> List.for_all (fun (v, _) -> label.(v) = label.(u)) rest
        in
        List.for_all (E.is_circuit g) parts
        && List.fold_left (fun acc c -> acc + max 0 (List.length c - 1)) 0 parts
           = D.n_edges g
        && E.is_eulerian g = one_component);
    Test.make ~name:"scc partitions the nodes" ~count:200 arb_graph (fun (n, es) ->
        let g = D.of_edges n es in
        let comps = T.strongly_connected_components g in
        let all = List.sort compare (List.concat comps) in
        all = List.init n Fun.id);
  ]

(* A queue BFS over Digraph successor lists: pop a node, append its
   undiscovered kept successors in list order.  Itopo.bfs must
   reproduce its discovery order exactly — Bstar and Spanning read that
   order as T′'s levels. *)
let fifo_bfs g ~keep src =
  let dist = Array.make (D.n_nodes g) (-1) in
  let order = ref [] in
  let q = Queue.create () in
  if keep src then begin
    dist.(src) <- 0;
    Queue.add src q
  end;
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    order := u :: !order;
    List.iter
      (fun v ->
        if keep v && dist.(v) < 0 then begin
          dist.(v) <- dist.(u) + 1;
          Queue.add v q
        end)
      (D.succs g u)
  done;
  (dist, Array.of_list (List.rev !order))

(* A random digraph with a random kept set (about 4 nodes in 5) and a
   random source. *)
let arb_kept_graph =
  QCheck.make
    QCheck.Gen.(
      random_graph_gen >>= fun (n, es) ->
      triple (return (n, es))
        (array_size (return n) (frequency [ (4, return true); (1, return false) ]))
        (int_range 0 (n - 1)))

(* Agreement between the implicit traversal layer (Itopo) and the
   list-based reference layer (Digraph, Oracles.Traversal) on random
   digraphs — the same pinning discipline test_netsim.ml uses for its
   engines. *)
let qsuite_compact =
  let open QCheck in
  let keep_of n v = v = 0 || (v * 31) mod n <> 1 in
  [
    (* One workspace serves every [~ws] call below, each run after a
       traversal that left it dirty. *)
    Test.make ~name:"Itopo.bfs order = FIFO oracle" ~count:300 arb_kept_graph
      (fun ((n, es), kept, src) ->
        let g = D.of_edges n es in
        let succs = isuccs g and preds = ipreds g in
        let keep v = kept.(v) in
        let dist, order = fifo_bfs g ~keep src in
        let matches (r : It.bfs) =
          r.It.count = Array.length order
          && Fa.to_array r.It.dist = dist
          && Fa.sub_to_array r.It.order 0 r.It.count = order
        in
        let ws = It.ws_create n in
        let fresh = matches (It.bfs ~n ~succs ~keep src) in
        ignore (It.bfs ~ws ~n ~succs 0);
        let reused = matches (It.bfs ~ws ~n ~succs ~keep src) in
        let component = It.largest_weak_component ~n ~succs ~preds ~keep () in
        let span_order, start, size =
          It.largest_weak_component_span ~ws ~n ~succs ~preds ~keep ()
        in
        let span = Fa.sub_to_array span_order start size = component in
        fresh && reused && span && matches (It.bfs ~ws ~n ~succs ~keep src));
    Test.make ~name:"Itopo.bfs_dist = Traversal.bfs_dist" ~count:200 arb_graph
      (fun (n, es) ->
        let g = D.of_edges n es in
        It.bfs_dist ~n ~succs:(isuccs g) 0 = T.bfs_dist g 0);
    Test.make ~name:"Itopo.bfs_dist with keep = bfs_dist_restricted" ~count:200
      arb_graph (fun (n, es) ->
        let g = D.of_edges n es in
        let keep = keep_of n in
        It.bfs_dist ~n ~succs:(isuccs g) ~keep 0 = T.bfs_dist_restricted g keep 0);
    Test.make ~name:"Itopo.eccentricity = Traversal.eccentricity" ~count:200
      arb_graph (fun (n, es) ->
        let g = D.of_edges n es in
        It.eccentricity ~n ~succs:(isuccs g) 0 = T.eccentricity g 0);
    Test.make ~name:"Itopo.largest_weak_component = Traversal's" ~count:200
      arb_graph (fun (n, es) ->
        let g = D.of_edges n es in
        let keep = keep_of n in
        let mine =
          List.sort compare
            (Array.to_list
               (It.largest_weak_component ~n ~succs:(isuccs g) ~preds:(ipreds g)
                  ~keep ()))
        in
        mine = List.sort compare (T.largest_weak_component g keep));
    Test.make ~name:"Itopo.weak_labels induces Traversal's partition" ~count:200
      arb_graph (fun (n, es) ->
        let g = D.of_edges n es in
        let mine = It.weak_labels ~n ~succs:(isuccs g) ~preds:(ipreds g) () in
        let reference, _ = T.weak_components g in
        let ids = List.init n Fun.id in
        (* same equivalence classes, and each label is the smallest member *)
        List.for_all
          (fun u ->
            mine.(u) <= u
            && mine.(mine.(u)) = mine.(u)
            && List.for_all
                 (fun v -> mine.(u) = mine.(v) = (reference.(u) = reference.(v)))
                 ids)
          ids);
    Test.make ~name:"Itopo.component_members = weak component of node" ~count:200
      arb_graph (fun (n, es) ->
        let g = D.of_edges n es in
        let members =
          It.component_members ~n ~succs:(isuccs g) ~preds:(ipreds g) 0
        in
        let reference, _ = T.weak_components g in
        Array.length members > 0
        && members.(0) = 0
        && List.sort compare (Array.to_list members)
           = List.filter (fun v -> reference.(v) = reference.(0)) (List.init n Fun.id));
    Test.make ~name:"Itopo.is_strongly_connected = Traversal's" ~count:200
      arb_graph (fun (n, es) ->
        let g = D.of_edges n es in
        let keep = keep_of n in
        It.is_strongly_connected ~n ~succs:(isuccs g) ~preds:(ipreds g) ()
        = T.is_strongly_connected g (fun _ -> true)
        && It.is_strongly_connected ~n ~succs:(isuccs g) ~preds:(ipreds g) ~keep ()
           = T.is_strongly_connected g keep);
  ]

(* ------------------------------------------------------------------ *)
(* flatarr: off-heap arrays and the arena carver *)

let test_flatarr_basics () =
  let a = Fa.make 5 (-1) in
  check_int "make fills" (-1) a.{3};
  a.{3} <- 42;
  check_int "set/get" 42 (Fa.get a 3);
  check_int "length" 5 (Fa.length a);
  Fa.fill_prefix a 2 7;
  Alcotest.(check (array int)) "fill_prefix" [| 7; 7; -1; 42; -1 |]
    (Fa.to_array a);
  let b = Fa.of_array [| 1; 2; 3 |] in
  Alcotest.(check (array int)) "of_array/to_array round-trip" [| 1; 2; 3 |]
    (Fa.to_array b);
  Alcotest.(check (array int)) "sub_to_array" [| 2; 3 |] (Fa.sub_to_array b 1 2);
  let c = Fa.create 5 in
  Fa.blit b c;
  check_int "blit prefix" 2 c.{1};
  let by = Fa.Byte.make 4 0 in
  by.{2} <- 1;
  Alcotest.(check (array bool)) "Byte.to_bool_array"
    [| false; false; true; false |]
    (Fa.Byte.to_bool_array by)

let test_flatarr_arena () =
  let words = 2 * Fa.Arena.aligned_words 10 in
  let bytes = Fa.Arena.aligned_bytes 100 in
  let a = Fa.Arena.create ~words ~bytes in
  let x = Fa.Arena.carve a 10 in
  let y = Fa.Arena.carve a 10 in
  check_int "zeroed" 0 x.{9};
  check_int "carve length" 10 (Fa.length y);
  check_int "words advance by aligned quanta"
    (2 * Fa.Arena.aligned_words 10)
    (Fa.Arena.words_used a);
  (* carved views are disjoint regions of one backing *)
  x.{9} <- 5;
  y.{0} <- 6;
  check_int "no overlap" 5 x.{9};
  let b = Fa.Arena.carve_byte a 100 in
  check_int "byte carve zeroed" 0 (Fa.Byte.get b 99);
  check_int "bytes used" (Fa.Arena.aligned_bytes 100) (Fa.Arena.bytes_used a);
  Alcotest.check_raises "word arena exhausted"
    (Invalid_argument "Flatarr.Arena.carve: arena exhausted") (fun () ->
      ignore (Fa.Arena.carve a 1));
  Alcotest.check_raises "byte arena exhausted"
    (Invalid_argument "Flatarr.Arena.carve_byte: arena exhausted") (fun () ->
      ignore (Fa.Arena.carve_byte a 1))

let test_itopo_ws_arena () =
  (* A workspace carved from an arena behaves exactly like a fresh one. *)
  let n = 64 in
  let arena =
    Fa.Arena.create ~words:(It.ws_arena_words n) ~bytes:0
  in
  let ws = It.ws_create ~arena n in
  check_int "arena fully consumed" (It.ws_arena_words n)
    (Fa.Arena.words_used arena);
  let succs v f = if v + 1 < n then f (v + 1) in
  let fresh = It.bfs ~n ~succs 0 in
  let arened = It.bfs ~ws ~n ~succs 0 in
  check_int "same count" fresh.It.count arened.It.count;
  Alcotest.(check (array int)) "same dist" (Fa.to_array fresh.It.dist)
    (Fa.to_array arened.It.dist)

let () =
  Alcotest.run "graphlib"
    [
      ( "digraph",
        [
          Alcotest.test_case "build" `Quick test_build;
          Alcotest.test_case "parallel edges and loops" `Quick test_parallel_and_loops;
          Alcotest.test_case "remove_nodes" `Quick test_remove_nodes;
          Alcotest.test_case "remove_edges" `Quick test_remove_edges;
          Alcotest.test_case "reverse" `Quick test_reverse;
          Alcotest.test_case "balanced" `Quick test_balanced;
        ] );
      ( "traversal",
        [
          Alcotest.test_case "bfs" `Quick test_bfs;
          Alcotest.test_case "bfs restricted" `Quick test_bfs_restricted;
          Alcotest.test_case "bfs tree minimal parent" `Quick test_bfs_tree;
          Alcotest.test_case "bfs tree unreachable nodes" `Quick test_bfs_tree_unreachable;
          Alcotest.test_case "bfs tree shared predecessors" `Quick test_bfs_tree_shared_preds;
          Alcotest.test_case "eccentricity" `Quick test_eccentricity;
          Alcotest.test_case "weak components" `Quick test_weak_components;
          Alcotest.test_case "largest weak component" `Quick test_largest_weak_component;
          Alcotest.test_case "scc" `Quick test_scc;
          Alcotest.test_case "strongly connected" `Quick test_strongly_connected;
        ] );
      ( "euler",
        [
          Alcotest.test_case "ring" `Quick test_euler_ring;
          Alcotest.test_case "figure eight" `Quick test_euler_eight;
          Alcotest.test_case "non-eulerian" `Quick test_euler_none;
          Alcotest.test_case "circuit partition" `Quick test_circuit_partition;
        ] );
      ( "cycle",
        [
          Alcotest.test_case "basic" `Quick test_cycle_basic;
          Alcotest.test_case "loop" `Quick test_cycle_loop;
          Alcotest.test_case "edges" `Quick test_cycle_edges;
          Alcotest.test_case "avoid" `Quick test_cycle_avoid;
          Alcotest.test_case "rotate/successor" `Quick test_cycle_rotate;
          Alcotest.test_case "of_successor_map" `Quick test_of_successor_map;
        ] );
      ( "connectivity",
        [
          Alcotest.test_case "ring" `Quick test_connectivity_ring;
          Alcotest.test_case "complete digraph" `Quick test_connectivity_complete;
          Alcotest.test_case "disconnected" `Quick test_connectivity_disconnected;
          Alcotest.test_case "bidirected cycle" `Quick test_connectivity_bidirected_cycle;
          Alcotest.test_case "cut vertex" `Quick test_connectivity_cut_vertex;
          Alcotest.test_case "De Bruijn facts (EH85)" `Quick test_connectivity_de_bruijn;
        ] );
      ("bitset", [ Alcotest.test_case "basic" `Quick test_bitset_basic ]);
      ( "itopo",
        [
          Alcotest.test_case "bfs on ring" `Quick test_itopo_bfs_ring;
          Alcotest.test_case "component members order" `Quick test_itopo_component_members;
          Alcotest.test_case "largest weak component" `Quick test_itopo_largest_weak;
          Alcotest.test_case "no_preds sweep" `Quick test_itopo_no_preds;
          Alcotest.test_case "arena workspace" `Quick test_itopo_ws_arena;
        ] );
      ( "flatarr",
        [
          Alcotest.test_case "basics" `Quick test_flatarr_basics;
          Alcotest.test_case "arena carving" `Quick test_flatarr_arena;
        ] );
      ("properties", List.map (fun t -> QCheck_alcotest.to_alcotest ~long:false t) qsuite);
      ( "compact vs reference",
        List.map (fun t -> QCheck_alcotest.to_alcotest ~long:false t) qsuite_compact );
    ]
