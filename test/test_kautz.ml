(* Tests for Kautz digraphs. *)

module K = Kautz
module D = Graphlib.Digraph
module T = Oracles.Traversal
module C = Graphlib.Cycle

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let sizes = [ (2, 1); (2, 2); (2, 3); (2, 4); (3, 2); (3, 3); (4, 2); (4, 3); (5, 2) ]

let test_size () =
  List.iter
    (fun (d, n) ->
      let k = K.create ~d ~n in
      check_int
        (Printf.sprintf "K(%d,%d)" d n)
        ((d + 1) * Numtheory.pow d (n - 1))
        k.K.size;
      check_int "graph nodes" k.K.size (D.n_nodes k.K.graph))
    sizes

let test_regular () =
  List.iter
    (fun (d, n) ->
      let k = K.create ~d ~n in
      for v = 0 to k.K.size - 1 do
        check_int "out" d (D.out_degree k.K.graph v);
        check_int "in" d (D.in_degree k.K.graph v)
      done)
    sizes

let test_no_loops () =
  List.iter
    (fun (d, n) ->
      let k = K.create ~d ~n in
      for v = 0 to k.K.size - 1 do
        check_bool "loop-free" false (D.mem_edge k.K.graph v v)
      done)
    sizes

let test_diameter () =
  List.iter
    (fun (d, n) ->
      let k = K.create ~d ~n in
      check_int (Printf.sprintf "diam K(%d,%d)" d n) n (T.diameter_from_all k.K.graph))
    [ (2, 1); (2, 2); (2, 3); (2, 4); (3, 2); (3, 3); (4, 2) ]

let test_strongly_connected () =
  List.iter
    (fun (d, n) ->
      let k = K.create ~d ~n in
      check_bool "strong" true (T.is_strongly_connected k.K.graph (fun _ -> true)))
    sizes

let test_encode_decode () =
  let k = K.create ~d:3 ~n:3 in
  for v = 0 to k.K.size - 1 do
    let letters = K.decode k v in
    check_int "roundtrip" v (K.encode k letters);
    (* adjacent letters distinct, letters in range *)
    Array.iteri
      (fun i x ->
        check_bool "range" true (x >= 0 && x <= 3);
        if i > 0 then check_bool "adjacent distinct" true (x <> letters.(i - 1)))
      letters
  done;
  Alcotest.check_raises "repeated letters rejected"
    (Invalid_argument "Kautz.encode: adjacent letters equal") (fun () ->
      ignore (K.encode k [| 0; 0; 1 |]))

let test_successor_semantics () =
  (* x₁…xₙ → x₂…xₙa with a ≠ xₙ *)
  let k = K.create ~d:3 ~n:3 in
  for v = 0 to k.K.size - 1 do
    let lv = K.decode k v in
    List.iter
      (fun w ->
        let lw = K.decode k w in
        check_int "shift 1" lv.(1) lw.(0);
        check_int "shift 2" lv.(2) lw.(1);
        check_bool "new letter differs" true (lw.(2) <> lv.(2)))
      (K.successors k v)
  done

let test_line_graph () =
  (* K(d,n+1) = L(K(d,n)) *)
  List.iter
    (fun (d, n) ->
      let k = K.create ~d ~n in
      let k' = K.create ~d ~n:(n + 1) in
      (* bijection: every edge maps to a distinct node of K(d,n+1) *)
      let seen = Hashtbl.create 256 in
      D.iter_edges
        (fun u v ->
          let z = K.edge_as_higher_node k (u, v) in
          check_bool "unseen" false (Hashtbl.mem seen z);
          Hashtbl.add seen z ())
        k.K.graph;
      check_int "edge count = node count above" k'.K.size (Hashtbl.length seen);
      (* adjacency preserved *)
      D.iter_edges
        (fun u v ->
          List.iter
            (fun w ->
              check_bool "line adjacency" true
                (D.mem_edge k'.K.graph
                   (K.edge_as_higher_node k (u, v))
                   (K.edge_as_higher_node k (v, w))))
            (D.succs k.K.graph v))
        k.K.graph)
    [ (2, 1); (2, 2); (3, 2) ]

let test_hamiltonian () =
  (* Kautz graphs are Hamiltonian (line graphs of Eulerian graphs). *)
  List.iter
    (fun (d, n) ->
      let k = K.create ~d ~n in
      match Hamsearch.Search.hamiltonian ~budget:3_000_000 k.K.graph with
      | Hamsearch.Search.Found c ->
          check_bool "valid" true (C.is_hamiltonian k.K.graph c)
      | _ -> Alcotest.fail (Printf.sprintf "K(%d,%d) should be Hamiltonian" d n))
    [ (2, 2); (2, 3); (3, 2); (2, 4); (3, 3); (4, 2) ]

let test_k32_decomposition () =
  (* the claims report's Kautz probe: K(3,2) decomposes into 3 HCs *)
  let k = K.create ~d:3 ~n:2 in
  match Hamsearch.Search.disjoint_hamiltonian_cycles ~budget:5_000_000 ~k:3 k.K.graph with
  | Some cs, _ ->
      check_int "3 cycles" 3 (List.length cs);
      check_bool "disjoint" true (C.pairwise_edge_disjoint cs);
      (* 3 disjoint HCs of 12 nodes use all 36 = 12·3 edges: a full
         Hamiltonian decomposition *)
      check_int "full decomposition" (D.n_edges k.K.graph)
        (3 * D.n_nodes k.K.graph)
  | None, _ -> Alcotest.fail "K(3,2) decomposes into 3 HCs"

let test_k22_single_hc_only () =
  let k = K.create ~d:2 ~n:2 in
  match Hamsearch.Search.disjoint_hamiltonian_cycles ~budget:2_000_000 ~k:2 k.K.graph with
  | None, false -> ()  (* conclusive: no 2 disjoint HCs *)
  | None, true -> Alcotest.fail "budget should suffice for K(2,2)"
  | Some _, _ -> Alcotest.fail "K(2,2) has only 1 HC in any disjoint family"

let qsuite =
  let open QCheck in
  [
    Test.make ~name:"decode/encode roundtrip" ~count:300
      (pair (oneofl [ (2, 2); (2, 4); (3, 3); (4, 2); (5, 2) ]) (int_range 0 1_000_000))
      (fun ((d, n), seed) ->
        let k = K.create ~d ~n in
        let v = seed mod k.K.size in
        K.encode k (K.decode k v) = v);
    Test.make ~name:"successors satisfy the Kautz constraint" ~count:300
      (pair (oneofl [ (2, 3); (3, 2); (3, 3); (4, 2) ]) (int_range 0 1_000_000))
      (fun ((d, n), seed) ->
        let k = K.create ~d ~n in
        let v = seed mod k.K.size in
        List.for_all
          (fun w ->
            let l = K.decode k w in
            Array.for_all Fun.id
              (Array.mapi (fun i x -> i = 0 || x <> l.(i - 1)) l))
          (K.successors k v));
    Test.make ~name:"edge lift lands in K(d,n+1)" ~count:200
      (pair (oneofl [ (2, 2); (3, 2) ]) (int_range 0 1_000_000))
      (fun ((d, n), seed) ->
        let k = K.create ~d ~n in
        let k' = K.create ~d ~n:(n + 1) in
        let v = seed mod k.K.size in
        List.for_all
          (fun w ->
            let z = K.edge_as_higher_node k (v, w) in
            z >= 0 && z < k'.K.size)
          (K.successors k v));
  ]

let () =
  Alcotest.run "kautz"
    [
      ( "structure",
        [
          Alcotest.test_case "size" `Quick test_size;
          Alcotest.test_case "regular" `Quick test_regular;
          Alcotest.test_case "no loops" `Quick test_no_loops;
          Alcotest.test_case "diameter = n" `Quick test_diameter;
          Alcotest.test_case "strongly connected" `Quick test_strongly_connected;
          Alcotest.test_case "encode/decode" `Quick test_encode_decode;
          Alcotest.test_case "successor semantics" `Quick test_successor_semantics;
          Alcotest.test_case "line graph" `Quick test_line_graph;
        ] );
      ( "hamiltonicity",
        [
          Alcotest.test_case "Hamiltonian" `Quick test_hamiltonian;
          Alcotest.test_case "K(3,2) full decomposition" `Quick test_k32_decomposition;
          Alcotest.test_case "K(2,2) single HC" `Quick test_k22_single_hc_only;
        ] );
      ("properties", List.map (fun t -> QCheck_alcotest.to_alcotest ~long:false t) qsuite);
    ]
