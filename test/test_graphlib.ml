(* Tests for the generic digraph substrate. *)

module D = Graphlib.Digraph
module T = Oracles.Traversal
module E = Oracles.Euler
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
(* connectivity *)

module Conn = Oracles.Connectivity

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

(* ------------------------------------------------------------------ *)
(* flatarr: off-heap arrays and the arena carver *)

module Fa = Graphlib.Flatarr

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
  let a = Fa.Arena.create ~words ~bytes ~cells:0 in
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

(* The 32-bit kind: node ids, keys and levels, and the -1 sentinel. *)
let test_flatarr_i32 () =
  let module I = Fa.I32 in
  let edge = [| -1; 0; Int32.to_int Int32.max_int; Int32.to_int Int32.min_int |] in
  let a = I.create 4 in
  Array.iteri (fun i v -> a.{i} <- Int32.of_int v) edge;
  Array.iteri
    (fun i v -> check_int (Printf.sprintf "cell %d round-trips" i) v (Int32.to_int a.{i}))
    edge;
  Alcotest.(check (array int)) "to_array" edge (I.to_array a);
  Alcotest.(check (array int)) "sub_to_array" [| 0; Int32.to_int Int32.max_int |]
    (I.sub_to_array a 1 2);
  let b = I.make 5 (-1) in
  check_int "make fills" (-1) (Int32.to_int b.{4});
  check_int "length" 5 (I.length b);
  I.fill b 3;
  Alcotest.(check (array int)) "fill" [| 3; 3; 3; 3; 3 |] (I.to_array b);
  I.check_nodes I.max_nodes;
  check_int "limit" (1 lsl 31) I.max_nodes;
  Alcotest.check_raises "past 2^31 nodes"
    (Invalid_argument
       "d^n = 2147483649 nodes is past the 2^31 limit of the 32-bit node tables")
    (fun () -> I.check_nodes (I.max_nodes + 1))

let test_flatarr_i32_arena () =
  let cells = Fa.Arena.aligned_cells 10 + Fa.Arena.aligned_cells 16 in
  let a = Fa.Arena.create ~words:0 ~bytes:0 ~cells in
  check_int "16 cells per 64 bytes" 16 (Fa.Arena.aligned_cells 10);
  let x = Fa.Arena.carve_i32 a 10 in
  check_int "next carve starts one 64-byte line on" 16 (Fa.Arena.cells_used a);
  let y = Fa.Arena.carve_i32 a 16 in
  check_int "cells used" 32 (Fa.Arena.cells_used a);
  check_int "carve length" 10 (Fa.I32.length x);
  Alcotest.(check (array int)) "zeroed" (Array.make 16 0) (Fa.I32.to_array y);
  (* disjoint views of one backing *)
  Array.iteri (fun i v -> x.{i} <- Int32.of_int v) [| -1; 0; 1; 2; 3; 4; 5; 6; 7; 8 |];
  y.{0} <- Int32.max_int;
  check_int "no overlap" 8 (Int32.to_int x.{9});
  Fa.I32.blit x y;
  Alcotest.(check (array int)) "blit between views"
    [| -1; 0; 1; 2; 3; 4; 5; 6; 7; 8; 0; 0; 0; 0; 0; 0 |]
    (Fa.I32.to_array y);
  Alcotest.check_raises "cell arena exhausted"
    (Invalid_argument "Flatarr.Arena.carve_i32: arena exhausted") (fun () ->
      ignore (Fa.Arena.carve_i32 a 1))

(* Agreement between the compact tables the library keeps its marks and
   node ids in (one bit per element, one 32-bit cell per entry) and the
   plain arrays they stand for, under random writes. *)
let qsuite_compact =
  let open QCheck in
  let writes lo hi =
    make
      Gen.(
        int_range 1 200 >>= fun n ->
        pair (return n) (list_size (int_range 0 300) (pair (int_range 0 (n - 1)) (int_range lo hi))))
  in
  let agree n f = List.for_all f (List.init n Fun.id) in
  [
    (* op 9 clears the whole set, 0-3 remove, 4-8 add *)
    Test.make ~name:"Bitset = bool array" ~count:200 (writes 0 9) (fun (n, ops) ->
        let b = BS.create n and r = Array.make n false in
        List.for_all
          (fun (i, op) ->
            if op = 9 then begin
              BS.clear b;
              Array.fill r 0 n false
            end
            else if op < 4 then begin
              BS.remove b i;
              r.(i) <- false
            end
            else begin
              BS.add b i;
              r.(i) <- true
            end;
            BS.cardinal b = List.length (List.filter Fun.id (Array.to_list r))
            && agree n (fun v -> BS.mem b v = r.(v)))
          ops);
    Test.make ~name:"Flatarr.I32 = int array" ~count:200
      (writes (Int32.to_int Int32.min_int) (Int32.to_int Int32.max_int))
      (fun (n, ws) ->
        let a = Fa.I32.make n (-1) and r = Array.make n (-1) in
        List.iter
          (fun (i, v) ->
            a.{i} <- Int32.of_int v;
            r.(i) <- v)
          ws;
        let c = Fa.I32.create n in
        Fa.I32.blit a c;
        let h = n / 2 in
        Fa.I32.to_array a = r
        && Fa.I32.to_array c = r
        && Fa.I32.sub_to_array a h (n - h) = Array.sub r h (n - h));
  ]

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
      ( "flatarr",
        [
          Alcotest.test_case "basics" `Quick test_flatarr_basics;
          Alcotest.test_case "arena carving" `Quick test_flatarr_arena;
          Alcotest.test_case "32-bit cells" `Quick test_flatarr_i32;
          Alcotest.test_case "32-bit arena carving" `Quick test_flatarr_i32_arena;
        ] );
      ("properties", List.map (fun t -> QCheck_alcotest.to_alcotest ~long:false t) qsuite);
      ( "compact vs reference",
        List.map (fun t -> QCheck_alcotest.to_alcotest ~long:false t) qsuite_compact );
    ]
