(* Tests for the De Bruijn substrate: words, necklaces, graphs, sequences. *)

module W = Debruijn.Word
module N = Debruijn.Necklace
module G = Debruijn.Graph
module S = Debruijn.Sequence
module D = Graphlib.Digraph
module T = Oracles.Traversal
module C = Graphlib.Cycle

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let p33 = W.params ~d:3 ~n:3
let p23 = W.params ~d:2 ~n:3
let p24 = W.params ~d:2 ~n:4
let p34 = W.params ~d:3 ~n:4

(* ------------------------------------------------------------------ *)
(* words *)

let test_params () =
  check_int "3^3" 27 p33.W.size;
  check_int "2^4" 16 p24.W.size;
  Alcotest.check_raises "d too small" (Invalid_argument "Word.params: d < 2") (fun () ->
      ignore (W.params ~d:1 ~n:3));
  Alcotest.check_raises "n too small" (Invalid_argument "Word.params: n < 1") (fun () ->
      ignore (W.params ~d:2 ~n:0));
  Alcotest.check_raises "overflow" (Invalid_argument "Word.params: d^n too large") (fun () ->
      ignore (W.params ~d:10 ~n:30))

let test_encode_decode () =
  let x = W.encode p33 [| 1; 1; 2 |] in
  check_int "encode 112 base 3" 14 x;
  Alcotest.(check (array int)) "decode" [| 1; 1; 2 |] (W.decode p33 x);
  check_int "encode 020" 6 (W.encode p33 [| 0; 2; 0 |]);
  Alcotest.(check string) "to_string" "020" (W.to_string p33 6);
  check_int "of_string" 14 (W.of_string p33 "112");
  List.iter
    (fun x -> check_int "roundtrip" x (W.encode p33 (W.decode p33 x)))
    (W.all p33)

let test_digits () =
  let x = W.of_string p34 "1202" in
  check_int "digit 1" 1 (W.digit p34 x 1);
  check_int "digit 2" 2 (W.digit p34 x 2);
  check_int "digit 4" 2 (W.digit p34 x 4);
  check_int "first" 1 (W.first_digit p34 x);
  check_int "last" 2 (W.last_digit p34 x);
  let p3 = W.params ~d:3 ~n:3 in
  check_int "prefix 120" (W.of_string p3 "120") (W.prefix p34 x);
  check_int "suffix 202" (W.of_string p3 "202") (W.suffix p34 x)

let test_cons_snoc () =
  let w = W.of_string (W.params ~d:3 ~n:2) "12" in
  check_int "cons" (W.of_string p33 "012") (W.cons p33 0 w);
  check_int "snoc" (W.of_string p33 "120") (W.snoc p33 w 0)

let test_rotations () =
  let x = W.of_string p34 "1202" in
  Alcotest.(check string) "rotl" "2021" (W.to_string p34 (W.rotl p34 x));
  (* The thesis: π³(1202) = π^{-1}(1202) = 2120. *)
  Alcotest.(check string) "rotl_by 3" "2120" (W.to_string p34 (W.rotl_by p34 3 x));
  Alcotest.(check string) "rotl_by -1 = rotl_by 3" "2120" (W.to_string p34 (W.rotl_by p34 (-1) x));
  check_int "full rotation identity" x (W.rotl_by p34 4 x);
  check_int "rotl_by 0" x (W.rotl_by p34 0 x)

let test_weight () =
  let x = W.of_string p34 "1120" in
  check_int "wt(1120)" 4 (W.weight p34 x);
  check_int "wt0" 1 (W.count_digit p34 0 x);
  check_int "wt1" 2 (W.count_digit p34 1 x);
  check_int "wt2" 1 (W.count_digit p34 2 x);
  check_int "wt(0000)" 0 (W.weight p34 (W.constant p34 0))

let test_period () =
  check_int "period 0101" 2 (W.period p24 (W.of_string p24 "0101"));
  check_int "period 0000" 1 (W.period p24 (W.of_string p24 "0000"));
  check_int "period 0011" 4 (W.period p24 (W.of_string p24 "0011"));
  check_bool "aperiodic" true (W.is_aperiodic p24 (W.of_string p24 "0011"));
  check_bool "periodic" false (W.is_aperiodic p24 (W.of_string p24 "0101"))

let test_constant_alternating () =
  Alcotest.(check string) "2222" "2222" (W.to_string p34 (W.constant p34 2));
  Alcotest.(check string) "alt even" "1212" (W.to_string p34 (W.alternating p34 1 2));
  Alcotest.(check string) "alt odd" "121" (W.to_string p33 (W.alternating p33 1 2))

let test_successors () =
  let x = W.of_string p33 "012" in
  Alcotest.(check (list string)) "succs" [ "120"; "121"; "122" ]
    (List.map (W.to_string p33) (W.successors p33 x));
  Alcotest.(check (list string)) "preds" [ "001"; "101"; "201" ]
    (List.map (W.to_string p33) (W.predecessors p33 x))

(* ------------------------------------------------------------------ *)
(* necklaces *)

let test_necklace_example () =
  (* N(1120) = [0112] = (1120, 1201, 2011, 0112) — the thesis's example. *)
  let x = W.of_string p34 "1120" in
  check_int "canonical" (W.of_string p34 "0112") (N.canonical p34 x);
  Alcotest.(check (list string)) "orbit from x" [ "1120"; "1201"; "2011"; "0112" ]
    (List.map (W.to_string p34) (N.nodes_from p34 x));
  Alcotest.(check (list string)) "orbit from rep" [ "0112"; "1120"; "1201"; "2011" ]
    (List.map (W.to_string p34) (N.nodes p34 x));
  check_int "length" 4 (N.length p34 x)

let test_necklace_short () =
  let x = W.of_string p24 "0101" in
  check_int "short necklace length" 2 (N.length p24 x);
  Alcotest.(check (list string)) "orbit" [ "0101"; "1010" ]
    (List.map (W.to_string p24) (N.nodes p24 x));
  check_int "constant necklace" 1 (N.length p24 (W.of_string p24 "1111"))

let test_necklace_partition () =
  (* Necklaces partition the node set, each of size dividing n. *)
  List.iter
    (fun p ->
      let reps = N.all_representatives p in
      let total = List.fold_left (fun acc r -> acc + N.length p r) 0 reps in
      check_int "partition covers all nodes" p.W.size total;
      List.iter
        (fun r ->
          check_bool "length divides n" true (p.W.n mod N.length p r = 0);
          List.iter
            (fun x -> check_int "canonical constant on orbit" r (N.canonical p x))
            (N.nodes p r))
        reps)
    [ p23; p24; p33; p34; W.params ~d:2 ~n:6; W.params ~d:4 ~n:3 ]

let test_necklace_same () =
  check_bool "same" true (N.same p34 (W.of_string p34 "1120") (W.of_string p34 "0112"));
  check_bool "diff" false (N.same p34 (W.of_string p34 "1120") (W.of_string p34 "1122"))

let test_necklace_counts () =
  (* B(2,3) has 4 necklaces: [000],[001],[011],[111]. *)
  check_int "B(2,3)" 4 (N.count p23);
  (* B(3,3): (1/3)(3·φ(3)... ) = (3^1·2 + 3^3·1)/3 = 11. *)
  check_int "B(3,3)" 11 (N.count p33);
  check_int "B(2,4)" 6 (N.count p24)

let test_mark_faulty () =
  let faults = [ W.of_string p33 "020"; W.of_string p33 "112" ] in
  let faulty = N.mark_faulty_necklaces p33 faults in
  let marked = List.filter (fun x -> faulty.(x)) (W.all p33) in
  check_int "two 3-necklaces marked" 6 (List.length marked);
  check_bool "rotation marked" true faulty.(W.of_string p33 "200");
  check_bool "unrelated not marked" false faulty.(W.of_string p33 "000")

(* ------------------------------------------------------------------ *)
(* graphs *)

let test_b_graph () =
  let g = G.b p23 in
  check_int "nodes" 8 (D.n_nodes g);
  check_int "edges (with loops)" 16 (D.n_edges g);
  check_bool "loop at 000" true (D.mem_edge g 0 0);
  check_bool "loop at 111" true (D.mem_edge g 7 7);
  (* edges of Figure 1.1(a): 000->001, 001->011, 100->001, ... *)
  let e a b = D.mem_edge g (W.of_string p23 a) (W.of_string p23 b) in
  check_bool "000->001" true (e "000" "001");
  check_bool "001->011" true (e "001" "011");
  check_bool "001->010" true (e "001" "010");
  check_bool "100->000" true (e "100" "000");
  check_bool "no 000->100" false (e "000" "100");
  check_bool "strongly connected" true (T.is_strongly_connected g (fun _ -> true))

let test_b_degrees () =
  List.iter
    (fun p ->
      let g = G.b p in
      for v = 0 to p.W.size - 1 do
        check_int "outdegree d" p.W.d (D.out_degree g v);
        check_int "indegree d" p.W.d (D.in_degree g v)
      done)
    [ p23; p33; p24 ]

let test_b_diameter () =
  (* diam B(d,n) = n. *)
  check_int "diam B(2,3)" 3 (T.diameter_from_all (G.b p23));
  check_int "diam B(3,3)" 3 (T.diameter_from_all (G.b p33));
  check_int "diam B(2,4)" 4 (T.diameter_from_all (G.b p24))

let test_ub_census () =
  (* [PR82]: UB(d,n) has d nodes of degree 2d−2, d(d−1) of degree 2d−1,
     and dⁿ − d² of degree 2d. *)
  List.iter
    (fun p ->
      let census = G.degree_census (G.ub p) in
      let d = p.W.d in
      let expected =
        List.filter
          (fun (_, c) -> c > 0)
          [ ((2 * d) - 2, d); ((2 * d) - 1, d * (d - 1)); (2 * d, p.W.size - (d * d)) ]
      in
      Alcotest.(check (list (pair int int)))
        (Printf.sprintf "census d=%d n=%d" p.W.d p.W.n)
        (List.sort compare expected) census)
    [ p23; p24; p33; p34; W.params ~d:4 ~n:3 ]

let test_ub_symmetric () =
  let g = G.ub p23 in
  D.iter_edges (fun u v -> check_bool "symmetric" true (D.mem_edge g v u)) g;
  check_bool "no loops" true (not (D.mem_edge g 0 0))

let test_line_graph () =
  (* B(d,n+1) = L(B(d,n)): edge-as-node round trip and adjacency. *)
  let p = p23 in
  let g = G.b p in
  let g' = G.b p24 in
  D.iter_edges
    (fun u v ->
      let z = G.edge_as_higher_node p (u, v) in
      let u', v' = G.higher_node_as_edge p z in
      check_int "roundtrip u" u u';
      check_int "roundtrip v" v v')
    g;
  (* Adjacency in the line graph = node adjacency upstairs. *)
  D.iter_edges
    (fun u v ->
      List.iter
        (fun w ->
          let z1 = G.edge_as_higher_node p (u, v) in
          let z2 = G.edge_as_higher_node p (v, w) in
          check_bool "line graph edge" true (D.mem_edge g' z1 z2))
        (D.succs g v))
    g

let test_cycle_to_lower_circuit () =
  (* The thesis's example: (012,122,221,212,120,201) in B(3,3) maps to
     the circuit (01,12,22,21,12,20,01) in B(3,2). *)
  let c = Array.map (W.of_string p33) [| "012"; "122"; "221"; "212"; "120"; "201" |] in
  check_bool "is cycle in B(3,3)" true (C.is_cycle (G.b p33) c);
  let p32 = W.params ~d:3 ~n:2 in
  let circuit = G.cycle_to_lower_circuit p33 c in
  Alcotest.(check (list string)) "circuit" [ "01"; "12"; "22"; "21"; "12"; "20"; "01" ]
    (List.map (W.to_string p32) circuit);
  check_bool "valid circuit downstairs" true (Oracles.Euler.is_circuit (G.b p32) circuit)

(* ------------------------------------------------------------------ *)
(* sequences *)

let test_sequence_windows () =
  (* [0,1,2,1,2] denotes the 5-cycle (012,121,212,120,201) in B(3,3). *)
  let c = [| 0; 1; 2; 1; 2 |] in
  Alcotest.(check (list string)) "windows" [ "012"; "121"; "212"; "120"; "201" ]
    (List.map (W.to_string p33) (Array.to_list (S.nodes_of_sequence p33 c)));
  check_bool "is cycle sequence" true (S.is_cycle_sequence p33 c);
  check_bool "cycle in graph" true (C.is_cycle (G.b p33) (S.cycle_of_sequence p33 c))

let test_sequence_roundtrip () =
  let c = [| 0; 1; 2; 1; 2 |] in
  Alcotest.(check (array int)) "sequence_of_cycle inverse" c
    (S.sequence_of_cycle p33 (S.cycle_of_sequence p33 c))

let test_sequence_not_cycle () =
  check_bool "repeated window" false (S.is_cycle_sequence p33 [| 0; 1; 2; 0; 1; 2 |]);
  check_bool "empty" false (S.is_cycle_sequence p33 [||])

let test_de_bruijn_sequence () =
  (* The classic binary De Bruijn sequence of order 3. *)
  let c = [| 0; 0; 0; 1; 0; 1; 1; 1 |] in
  check_bool "de bruijn" true (S.is_de_bruijn_sequence p23 c);
  check_bool "short not" false (S.is_de_bruijn_sequence p23 [| 0; 0; 1; 1 |]);
  let cyc = S.cycle_of_sequence p23 c in
  check_bool "hamiltonian" true (C.is_hamiltonian (G.b p23) cyc)

let test_sequence_edge_disjoint () =
  (* Two length-4 cycles in B(2,2): [0,0,1,1] uses edges 001,011,110,100;
     [0,1,0,1]... is not a cycle (windows repeat).  Use B(2,2)'s two
     2-cycles instead: [0,1] (01,10) and loops are excluded, so compare
     [0,0,1,1] with itself rotated (same edges). *)
  let p22 = W.params ~d:2 ~n:2 in
  let a = [| 0; 0; 1; 1 |] in
  check_bool "self not disjoint" false (S.edge_disjoint p22 a a);
  check_bool "rotation not disjoint" false (S.edge_disjoint p22 a (S.rotate a 1));
  let b = [| 0; 1 |] in
  check_bool "disjoint" true (S.edge_disjoint p22 a b)

let test_sequence_rotate_equal () =
  let a = [| 1; 2; 3; 4 |] in
  Alcotest.(check (array int)) "rotate" [| 3; 4; 1; 2 |] (S.rotate a 2);
  check_bool "cyclic equal" true (S.equal_cyclically a [| 4; 1; 2; 3 |]);
  check_bool "not equal" false (S.equal_cyclically a [| 1; 2; 4; 3 |]);
  check_bool "diff lengths" false (S.equal_cyclically a [| 1; 2 |])

let test_add_scalar () =
  let f = Galois.Gf.create 3 in
  let c = [| 0; 1; 2; 1; 2 |] in
  Alcotest.(check (array int)) "s + C over GF(3)" [| 1; 2; 0; 2; 0 |]
    (S.add_scalar (Galois.Gf.add f) c 1)

let test_de_bruijn_is_eulerian () =
  (* B(d,n) is balanced and connected, hence Eulerian; its Euler circuit
     traverses each edge once — i.e. it reads out a De Bruijn sequence
     of order n+1 (the classic line-graph route to existence). *)
  List.iter
    (fun (d, n) ->
      let p = W.params ~d ~n in
      let g = G.b p in
      check_bool "eulerian" true (Oracles.Euler.is_eulerian g);
      match Oracles.Euler.euler_circuit g with
      | None -> Alcotest.fail "circuit expected"
      | Some circuit ->
          check_int "edge count" (D.n_edges g) (List.length circuit - 1);
          check_bool "valid" true (Oracles.Euler.is_circuit g circuit);
          (* map the circuit's edges to nodes of B(d,n+1): they form a
             Hamiltonian cycle there *)
          let p' = W.params ~d ~n:(n + 1) in
          let rec edges acc = function
            | a :: (b :: _ as rest) -> edges (G.edge_as_higher_node p (a, b) :: acc) rest
            | _ -> List.rev acc
          in
          let upstairs = Array.of_list (edges [] circuit) in
          check_bool "lifts to an HC of B(d,n+1)" true
            (C.is_hamiltonian (G.b p') upstairs))
    [ (2, 3); (2, 4); (3, 2); (3, 3); (4, 2) ]

let test_large_word_sizes () =
  (* the encoding stays exact at the top of the supported range *)
  let p = W.params ~d:2 ~n:20 in
  check_int "2^20" (1 lsl 20) p.W.size;
  let x = p.W.size - 1 in
  check_int "rotl fixes all-ones" x (W.rotl p x);
  check_int "weight" 20 (W.weight p x);
  let p3 = W.params ~d:3 ~n:12 in
  let y = W.encode p3 (Array.init 12 (fun i -> i mod 3)) in
  check_int "period of repeating pattern" 3 (W.period p3 y);
  check_int "necklace length" 3 (N.length p3 y)

(* ------------------------------------------------------------------ *)
(* properties *)

let qsuite =
  let open QCheck in
  let params_gen =
    oneofl [ (2, 3); (2, 4); (2, 5); (3, 2); (3, 3); (4, 2); (4, 3); (5, 2) ]
  in
  [
    Test.make ~name:"rotl preserves weight and digit counts" ~count:500
      (pair params_gen (int_range 0 100000))
      (fun ((d, n), x) ->
        let p = W.params ~d ~n in
        let x = x mod p.W.size in
        W.weight p (W.rotl p x) = W.weight p x
        && List.for_all
             (fun a -> W.count_digit p a (W.rotl p x) = W.count_digit p a x)
             (List.init d Fun.id));
    Test.make ~name:"rotl_by n is identity" ~count:500 (pair params_gen (int_range 0 100000))
      (fun ((d, n), x) ->
        let p = W.params ~d ~n in
        let x = x mod p.W.size in
        W.rotl_by p n x = x);
    Test.make ~name:"decode gives valid digits" ~count:500 (pair params_gen (int_range 0 100000))
      (fun ((d, n), x) ->
        let p = W.params ~d ~n in
        let x = x mod p.W.size in
        Array.for_all (fun c -> c >= 0 && c < d) (W.decode p x));
    Test.make ~name:"successor/predecessor duality" ~count:500
      (pair params_gen (int_range 0 100000))
      (fun ((d, n), x) ->
        let p = W.params ~d ~n in
        let x = x mod p.W.size in
        List.for_all (fun y -> List.mem x (W.predecessors p y)) (W.successors p x));
    Test.make ~name:"canonical is minimal rotation" ~count:500
      (pair params_gen (int_range 0 100000))
      (fun ((d, n), x) ->
        let p = W.params ~d ~n in
        let x = x mod p.W.size in
        let c = N.canonical p x in
        List.for_all (fun y -> c <= y) (N.nodes_from p x));
    Test.make ~name:"necklace orbit under rotl is closed" ~count:500
      (pair params_gen (int_range 0 100000))
      (fun ((d, n), x) ->
        let p = W.params ~d ~n in
        let x = x mod p.W.size in
        let orbit = N.nodes_from p x in
        List.for_all (fun y -> N.same p x y) orbit);
    Test.make ~name:"sequence/cycle roundtrip" ~count:300
      (pair params_gen (int_range 0 1000))
      (fun ((d, n), seed) ->
        (* take the necklace cycle of a random node as a cycle sequence *)
        let p = W.params ~d ~n in
        let x = seed mod p.W.size in
        let cyc = Array.of_list (N.nodes_from p x) in
        let seq = S.sequence_of_cycle p cyc in
        S.cycle_of_sequence p seq = cyc);
  ]

let () =
  Alcotest.run "debruijn"
    [
      ( "word",
        [
          Alcotest.test_case "params" `Quick test_params;
          Alcotest.test_case "encode/decode" `Quick test_encode_decode;
          Alcotest.test_case "digits" `Quick test_digits;
          Alcotest.test_case "cons/snoc" `Quick test_cons_snoc;
          Alcotest.test_case "rotations" `Quick test_rotations;
          Alcotest.test_case "weight" `Quick test_weight;
          Alcotest.test_case "period" `Quick test_period;
          Alcotest.test_case "constant/alternating" `Quick test_constant_alternating;
          Alcotest.test_case "successors" `Quick test_successors;
        ] );
      ( "necklace",
        [
          Alcotest.test_case "thesis example N(1120)" `Quick test_necklace_example;
          Alcotest.test_case "short necklaces" `Quick test_necklace_short;
          Alcotest.test_case "partition" `Quick test_necklace_partition;
          Alcotest.test_case "same" `Quick test_necklace_same;
          Alcotest.test_case "counts" `Quick test_necklace_counts;
          Alcotest.test_case "mark faulty" `Quick test_mark_faulty;
        ] );
      ( "graph",
        [
          Alcotest.test_case "B(2,3) structure (Fig 1.1)" `Quick test_b_graph;
          Alcotest.test_case "regular degrees" `Quick test_b_degrees;
          Alcotest.test_case "diameter" `Quick test_b_diameter;
          Alcotest.test_case "UB census (PR82)" `Quick test_ub_census;
          Alcotest.test_case "UB symmetric" `Quick test_ub_symmetric;
          Alcotest.test_case "line graph" `Quick test_line_graph;
          Alcotest.test_case "cycle to lower circuit" `Quick test_cycle_to_lower_circuit;
          Alcotest.test_case "Eulerian / sequence lift" `Quick test_de_bruijn_is_eulerian;
          Alcotest.test_case "large word sizes" `Quick test_large_word_sizes;
        ] );
      ( "sequence",
        [
          Alcotest.test_case "windows (thesis 5-cycle)" `Quick test_sequence_windows;
          Alcotest.test_case "roundtrip" `Quick test_sequence_roundtrip;
          Alcotest.test_case "non-cycles" `Quick test_sequence_not_cycle;
          Alcotest.test_case "de bruijn sequence" `Quick test_de_bruijn_sequence;
          Alcotest.test_case "edge disjoint" `Quick test_sequence_edge_disjoint;
          Alcotest.test_case "rotate/equal" `Quick test_sequence_rotate_equal;
          Alcotest.test_case "add scalar" `Quick test_add_scalar;
        ] );
      ("properties", List.map (fun t -> QCheck_alcotest.to_alcotest ~long:false t) qsuite);
    ]
