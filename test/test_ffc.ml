(* Tests for Chapter 2: the fault-free cycle algorithm. *)

module W = Debruijn.Word
module Nk = Debruijn.Necklace
module B = Ffc.Bstar
module A = Ffc.Adjacency
module Sp = Ffc.Spanning
module E = Ffc.Embed
module Dist = Ffc.Distributed
module Fa = Graphlib.Flatarr

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let p33 = W.params ~d:3 ~n:3

let example_faults = [ W.of_string p33 "020"; W.of_string p33 "112" ]

let example_bstar () =
  Option.get (B.compute ~root_hint:(W.of_string p33 "000") p33 ~faults:example_faults)

(* The pipeline against the frozen list-based reference: same root,
   |B*|, membership, successor map and ring. *)
let matches_reference (e : E.t) (r : Oracles.Ffc_reference.t) =
  e.E.bstar.B.root = r.Oracles.Ffc_reference.root
  && e.E.bstar.B.size = r.Oracles.Ffc_reference.size
  && Fa.Byte.to_bool_array e.E.bstar.B.in_bstar = r.Oracles.Ffc_reference.in_bstar
  && Fa.to_array e.E.successor = r.Oracles.Ffc_reference.successor
  && e.E.cycle = r.Oracles.Ffc_reference.cycle

(* The digit table is the ring: the outside mark exactly where
   [in_bstar] is 0, and on B* node v = αw steps to
   wβ = (v mod dⁿ⁻¹)·d + β, its [successor]. *)
let digits_are_ring (e : E.t) =
  let p = e.E.bstar.B.p in
  let digit = e.E.modified.Sp.digit in
  let stride = p.W.size / p.W.d in
  let ok = ref true in
  for v = 0 to p.W.size - 1 do
    let outside = digit.Ffc.Succ_digit.bytes.{v} = Ffc.Succ_digit.outside in
    if outside <> (e.E.bstar.B.in_bstar.{v} = 0) then ok := false;
    if (not outside) && (v mod stride * p.W.d) + Ffc.Succ_digit.get digit v <> e.E.successor.{v}
    then ok := false
  done;
  !ok

(* [dist]/[ecc] of a B* record against the seed's list BFS from R over
   B*, on the materialized B(d,n). *)
let dist_matches_traversal (b : B.t) =
  let g = Debruijn.Graph.b b.B.p in
  let dist =
    Oracles.Traversal.bfs_dist_restricted g (fun v -> b.B.in_bstar.{v} <> 0) b.B.root
  in
  Fa.I32.to_array b.B.dist = dist && b.B.ecc = Array.fold_left max 0 dist

(* B*'s strong connectivity and diameter (the thesis's K), which the
   library does not compute: the seed's list BFS over the materialized
   B(d,n) restricted to [in_bstar]. *)
let bstar_strongly_connected (b : B.t) =
  Oracles.Traversal.is_strongly_connected (Debruijn.Graph.b b.B.p) (fun v ->
      b.B.in_bstar.{v} <> 0)

let bstar_diameter (b : B.t) =
  let g = Debruijn.Graph.b b.B.p in
  let keep v = b.B.in_bstar.{v} <> 0 in
  List.fold_left
    (fun acc v -> Array.fold_left max acc (Oracles.Traversal.bfs_dist_restricted g keep v))
    0 (B.nodes b)

(* N* is connected iff the digraph on necklace indices spanned by
   [A.edges] has one weak component (the seed's list layer). *)
let nstar_connected (adj : A.t) =
  let n = Array.length adj.A.reps in
  n <= 1
  || snd
       (Oracles.Traversal.weak_components
          (Graphlib.Digraph.of_edges n (List.map (fun (i, j, _) -> (i, j)) (A.edges adj))))
     = 1

(* ------------------------------------------------------------------ *)
(* B* *)

let test_bstar_example () =
  let b = example_bstar () in
  check_int "21 nodes survive" 21 b.B.size;
  check_int "root is 000" (W.of_string p33 "000") b.B.root;
  check_bool "faulty node flagged" true (b.B.necklace_faulty.{W.of_string p33 "020"} <> 0);
  check_bool "rotation of faulty flagged" true (b.B.necklace_faulty.{W.of_string p33 "200"} <> 0);
  check_bool "live node kept" true (b.B.in_bstar.{W.of_string p33 "012"} <> 0);
  check_bool "strongly connected" true (bstar_strongly_connected b);
  check_int "9 live necklaces" 9 (B.necklace_count b)

let test_bstar_no_faults () =
  let b = Option.get (B.compute p33 ~faults:[]) in
  check_int "everything" 27 b.B.size;
  check_int "root is minimal rep" 0 b.B.root

let test_bstar_all_faulty () =
  let p = W.params ~d:2 ~n:2 in
  (* Faults covering all four necklaces of B(2,2). *)
  let faults = List.map (W.of_string p) [ "00"; "01"; "11" ] in
  check_bool "empty" true (B.compute p ~faults = None)

let test_bstar_component_of () =
  (* d=2, wt(x)=1 fault isolates 0^n's side: removing N(0...01)
     disconnects node 0000... from the rest?  Per Prop 2.3, removing a
     weight-1 necklace leaves the weight-0 node isolated. *)
  let p = W.params ~d:2 ~n:4 in
  let fault = W.of_string p "0001" in
  let big = Option.get (B.compute p ~faults:[ fault ]) in
  (* 16 − 4 (faulty necklace) − 1 (isolated 0000) = 11 *)
  check_int "largest component size" 11 big.B.size;
  let isolated = B.component_of p ~faults:[ fault ] (W.of_string p "0000") in
  check_int "0000 isolated" 1 (Option.get isolated).B.size;
  check_bool "faulty node has no component" true
    (B.component_of p ~faults:[ fault ] fault = None)

let test_bstar_root_hint () =
  let b =
    Option.get (B.compute ~root_hint:(W.of_string p33 "221") p33 ~faults:example_faults)
  in
  (* hint 221 normalizes to its necklace representative 122. *)
  check_int "root canonicalized" (W.of_string p33 "122") b.B.root

(* Bstar.compute's second path.  The flood from the root candidate
   settles B* alone only when it reaches a strict majority of the live
   nodes; these cases, found by exhaustive search, must fall back to the
   sweep over every component, and still agree with the frozen
   reference and with a list BFS from R.  Each runs twice: fresh, and
   through a workspace that has just embedded a majority instance. *)
let test_bstar_fallback () =
  let case what p ?root_hint faults ~root ~members =
    let run how ws =
      let what = what ^ how in
      let b = Option.get (B.compute ?root_hint ?ws p ~faults) in
      check_int (what ^ ": root") root b.B.root;
      check_int (what ^ ": size") (List.length members) b.B.size;
      Alcotest.(check (list int)) (what ^ ": members") members (B.nodes b);
      check_bool (what ^ ": dist/ecc = list BFS from R") true (dist_matches_traversal b);
      let e = Option.get (E.embed ?root_hint ?ws p ~faults) in
      let r = Option.get (Oracles.Ffc_reference.embed ?root_hint p ~faults) in
      check_bool (what ^ ": pipeline = reference") true (matches_reference e r)
    in
    run "" None;
    let ws = Ffc.Workspace.create p in
    ignore (E.embed ~ws p ~faults:[]);
    run " (workspace)" (Some ws)
  in
  let p4 = W.params ~d:2 ~n:4 in
  let w = W.of_string p4 in
  (* Two 5-node halves: the hint's half holds exactly half of the 10
     live nodes, no strict majority, so the tie goes to the half
     holding 0000. *)
  case "halves" p4 ~root_hint:(w "0111") [ w "0011"; w "0101" ] ~root:0
    ~members:[ 0; 1; 2; 4; 8 ];
  (* The largest component holds 4 of the 8 live nodes. *)
  case "no majority" p4 [ w "0001"; w "0111" ] ~root:3 ~members:[ 3; 6; 9; 12 ];
  (* 0000 is isolated: the first flood reaches one node. *)
  case "isolated candidate" p4 [ w "0001" ] ~root:3
    ~members:[ 3; 5; 6; 7; 9; 10; 11; 12; 13; 14; 15 ];
  (* 17 live nodes in components of 6, 5, 5 and 1.  The first flood,
     from 00000, reaches the largest component but no majority, so the
     sweep must flood it again: a sweep that kept the first flood's
     marks would skip it and return 00111's 5 nodes. *)
  let p5 = W.params ~d:2 ~n:5 in
  let w = W.of_string p5 in
  case "largest holds the candidate" p5 [ w "00011"; w "00101"; w "01111" ] ~root:0
    ~members:[ 0; 1; 2; 4; 8; 16 ]

let test_bstar_eccentricity () =
  let b = example_bstar () in
  let ecc = B.eccentricity_of_root b in
  check_bool "ecc within [n, 2n]" true (ecc >= 3 && ecc <= 6);
  check_bool "diameter >= ecc" true (bstar_diameter b >= ecc)

(* ------------------------------------------------------------------ *)
(* N* (Figure 2.3) *)

let test_adjacency_figure_2_3 () =
  let b = example_bstar () in
  let adj = A.build b in
  check_int "9 necklaces" 9 (Array.length adj.A.reps);
  let idx s = A.index_of_rep adj (W.of_string p33 s) in
  let labels a bb = List.map (W.to_string (W.params ~d:3 ~n:2)) (A.labels_between adj (idx a) (idx bb)) in
  (* Edges of Figure 2.3, derived by hand from the definition: an edge
     labeled w joins two live necklaces holding αw and βw, α ≠ β.
     E.g. suffix 10 is held by 010 ∈ [001], 110 ∈ [011], 210 ∈ [021] —
     a 10-labeled triangle. *)
  Alcotest.(check (list string)) "[000]-[001]" [ "00" ] (labels "000" "001");
  Alcotest.(check (list string)) "[001]-[011]" [ "01"; "10" ] (labels "001" "011");
  Alcotest.(check (list string)) "[011]-[111]" [ "11" ] (labels "011" "111");
  Alcotest.(check (list string)) "[001]-[021]" [ "10" ] (labels "001" "021");
  Alcotest.(check (list string)) "[011]-[021]" [ "10" ] (labels "011" "021");
  Alcotest.(check (list string)) "[021]-[022]" [ "02" ] (labels "021" "022");
  Alcotest.(check (list string)) "[021]-[122]" [ "21" ] (labels "021" "122");
  Alcotest.(check (list string)) "[012]-[022]" [ "20" ] (labels "012" "022");
  Alcotest.(check (list string)) "[012]-[122]" [ "12" ] (labels "012" "122");
  Alcotest.(check (list string)) "[122]-[222]" [ "22" ] (labels "122" "222");
  Alcotest.(check (list string)) "[011]-[012]" [ "01" ] (labels "011" "012");
  (* Symmetry of N*. *)
  let edges = A.edges adj in
  List.iter
    (fun (i, j, w) ->
      check_bool "antiparallel twin" true (List.mem (j, i, w) edges))
    edges;
  check_bool "connected" true (nstar_connected adj);
  (* no edges between non-adjacent necklaces *)
  Alcotest.(check (list string)) "[000]-[111]" [] (labels "000" "111");
  (* A mangled record: faulting 001 and 002 removes [001] and [002] and
     isolates 000, so B* leaves it out; putting 000 back into in_bstar
     makes [000] a necklace without a single N* edge. *)
  let cut =
    Option.get
      (B.compute p33 ~faults:[ W.of_string p33 "001"; W.of_string p33 "002" ])
  in
  check_bool "000 isolated" true (cut.B.in_bstar.{0} = 0);
  check_bool "cut N* connected" true (nstar_connected (A.build cut));
  let in_bstar = Fa.Byte.make p33.W.size 0 in
  Bigarray.Array1.blit cut.B.in_bstar in_bstar;
  in_bstar.{0} <- 1;
  let mangled = A.build { cut with B.in_bstar; size = cut.B.size + 1 } in
  check_int "[000] indexed" 0 (Int32.to_int mangled.A.idx_of_node.{0});
  check_bool "N* with [000] back is disconnected" false (nstar_connected mangled)

let test_adjacency_entry_exit () =
  let b = example_bstar () in
  let adj = A.build b in
  let p2 = W.params ~d:3 ~n:2 in
  let idx s = A.index_of_rep adj (W.of_string p33 s) in
  (* necklace [011] contains 101 = α·01 with α=1 (exit for w=01) and
     011 = 01·β with β=1 (entry for w=01). *)
  Alcotest.(check (option int)) "exit 101" (Some (W.of_string p33 "101"))
    (A.node_with_suffix adj (idx "011") (W.of_string p2 "01"));
  Alcotest.(check (option int)) "entry 011" (Some (W.of_string p33 "011"))
    (A.node_with_prefix adj (idx "011") (W.of_string p2 "01"));
  Alcotest.(check (option int)) "no exit for foreign w" None
    (A.node_with_suffix adj (idx "000") (W.of_string p2 "12"))

let test_adjacency_unique_alpha_w () =
  (* A necklace contains at most one node αw for a given w (weight
     argument in §2.2) — check exhaustively on a fault-free B(3,3). *)
  let b = Option.get (B.compute p33 ~faults:[]) in
  let adj = A.build b in
  let p2 = W.params ~d:3 ~n:2 in
  Array.iteri
    (fun i _ ->
      for w = 0 to p2.W.size - 1 do
        let hits =
          List.filter
            (fun a -> Int32.to_int adj.A.idx_of_node.{W.cons p33 a w} = i)
            [ 0; 1; 2 ]
        in
        check_bool "at most one" true (List.length hits <= 1)
      done)
    adj.A.reps

(* ------------------------------------------------------------------ *)
(* spanning tree and modified tree *)

let test_spanning_height_one () =
  let b = example_bstar () in
  let t = Sp.build (A.build b) in
  check_bool "height one" true (Sp.check_height_one t);
  check_int "spanning: 8 tree edges for 9 necklaces" 8 (List.length (Sp.tree_edges t))

let test_spanning_height_one_random () =
  let rng = Util.Rng.create 7 in
  List.iter
    (fun (d, n) ->
      let p = W.params ~d ~n in
      for _ = 1 to 25 do
        let f = 1 + Util.Rng.int rng (d + 2) in
        let faults = Util.Rng.sample_distinct rng ~k:f ~bound:p.W.size in
        match B.compute p ~faults with
        | None -> ()
        | Some b ->
            let t = Sp.build (A.build b) in
            check_bool "height one" true (Sp.check_height_one t);
            let m = Sp.modify t in
            check_bool "spanning subgraph" true (Sp.is_spanning_subgraph m)
      done)
    [ (2, 5); (3, 3); (4, 2); (5, 2); (3, 4) ]

let test_modified_groups () =
  let b = example_bstar () in
  let m = Sp.modify (Sp.build (A.build b)) in
  (* Every group has ≥ 2 members and every member has exactly one
     outgoing w-edge. *)
  List.iter
    (fun (w, members) ->
      check_bool "group size" true (List.length members >= 2);
      List.iter
        (fun idx ->
          check_bool "has out edge" true (Option.is_some (Sp.out_edge m idx w)))
        members)
    (Sp.groups m);
  (* D has as many edges as T edges plus one per group (cycle closing). *)
  let d_edges = Sp.d_edge_count m in
  let t_edges = List.length (Sp.tree_edges m.Sp.tree) in
  check_int "edge count" (t_edges + List.length (Sp.groups m)) d_edges

(* ------------------------------------------------------------------ *)
(* the embedding: Example 2.1 and bounds *)

let test_example_2_1_cycle () =
  let e = E.of_bstar (example_bstar ()) in
  let expected =
    [ "000"; "001"; "011"; "111"; "110"; "101"; "012"; "122"; "222"; "221"; "212";
      "120"; "201"; "010"; "102"; "022"; "220"; "202"; "021"; "210"; "100" ]
  in
  Alcotest.(check (list string)) "the thesis's 21-cycle"
    expected
    (List.map (W.to_string p33) (Array.to_list e.E.cycle));
  check_bool "verified" true (E.verify e)

let test_example_2_1_successors () =
  (* §2.2: "node 120 is followed by its necklace successor 201 …
     node 101 is followed by 012". *)
  let e = E.of_bstar (example_bstar ()) in
  let succ s = e.E.successor.{W.of_string p33 s} in
  check_int "succ 120 = 201" (W.of_string p33 "201") (succ "120");
  check_int "succ 101 = 012" (W.of_string p33 "012") (succ "101")

let test_embed_no_faults () =
  (* With no faults the FFC algorithm produces a full Hamiltonian cycle
     of B(d,n) — a De Bruijn sequence.  The ring's digit table spells
     the same sequence n places on: the digit of ring node i is the
     last digit of node i+1, the first digit of node i+n. *)
  List.iter
    (fun (d, n) ->
      let p = W.params ~d ~n in
      let e = Option.get (E.embed p ~faults:[]) in
      check_int "full length" p.W.size (E.length e);
      check_bool "verified" true (E.verify e);
      let seq = Debruijn.Sequence.sequence_of_cycle p e.E.cycle in
      check_bool "De Bruijn sequence" true (Debruijn.Sequence.is_de_bruijn_sequence p seq);
      let spelled = Core.de_bruijn_sequence ~d ~n in
      Alcotest.(check (array int))
        "digits = de_bruijn_sequence rotated by n"
        (Array.init p.W.size (fun i -> spelled.((i + n) mod p.W.size)))
        (Array.map (Ffc.Succ_digit.get e.E.modified.Sp.digit) e.E.cycle))
    [ (2, 3); (2, 4); (2, 5); (2, 6); (3, 3); (4, 2); (4, 3); (5, 2); (3, 4); (2, 10); (3, 5);
      (4, 4) ]

let test_prop_2_2_bound () =
  (* f ≤ d−2 node failures: cycle length ≥ dⁿ − nf, exhaustively for all
     single faults and randomly for larger f. *)
  List.iter
    (fun (d, n) ->
      let p = W.params ~d ~n in
      for fault = 0 to p.W.size - 1 do
        let e = Option.get (E.embed p ~faults:[ fault ]) in
        check_bool "single-fault bound" true (E.length e >= E.length_lower_bound p 1);
        check_bool "verified" true (E.verify e)
      done)
    [ (3, 3); (4, 2); (4, 3); (5, 2) ];
  let rng = Util.Rng.create 11 in
  List.iter
    (fun (d, n) ->
      let p = W.params ~d ~n in
      for _ = 1 to 40 do
        let f = 1 + Util.Rng.int rng (d - 2) in
        let faults = Util.Rng.sample_distinct rng ~k:f ~bound:p.W.size in
        let e = Option.get (E.embed p ~faults) in
        check_bool "bound" true (E.length e >= E.length_lower_bound p f);
        check_bool "verified" true (E.verify e)
      done)
    [ (4, 3); (5, 2); (5, 3); (6, 2); (7, 2) ]

let test_prop_2_2_diameter () =
  (* With f ≤ d−2 the diameter of B* is at most 2n. *)
  let rng = Util.Rng.create 13 in
  List.iter
    (fun (d, n) ->
      let p = W.params ~d ~n in
      for _ = 1 to 15 do
        let f = 1 + Util.Rng.int rng (d - 2) in
        let faults = Util.Rng.sample_distinct rng ~k:f ~bound:p.W.size in
        match B.compute p ~faults with
        | None -> Alcotest.fail "B* should be nonempty under d-2 faults"
        | Some b ->
            check_bool "diameter <= 2n" true (bstar_diameter b <= 2 * n);
            (* B* contains all live necklaces: size = dⁿ − NF. *)
            let nf =
              List.length (List.filter (fun v -> b.B.necklace_faulty.{v} <> 0) (W.all p))
            in
            check_int "no fragmentation" (p.W.size - nf) b.B.size
      done)
    [ (4, 3); (5, 2); (6, 2); (7, 2); (5, 3) ]

let test_prop_2_3_binary_single_fault () =
  (* d = 2, f = 1: cycle length ≥ 2ⁿ − (n+1), for every possible fault. *)
  List.iter
    (fun n ->
      let p = W.params ~d:2 ~n in
      for fault = 0 to p.W.size - 1 do
        let e = Option.get (E.embed p ~faults:[ fault ]) in
        check_bool
          (Printf.sprintf "n=%d fault=%s" n (W.to_string p fault))
          true
          (E.length e >= p.W.size - (n + 1));
        check_bool "verified" true (E.verify e)
      done)
    [ 3; 4; 5; 6; 7; 8 ]

let test_worst_case_optimality () =
  (* The adversarial pattern F = {α^{n−1}(d−1)} achieves exactly
     dⁿ − nf: each faulty node is on a full-length necklace, and no
     cycle can do better (line-graph argument, §2.5). *)
  List.iter
    (fun (d, n, f) ->
      let p = W.params ~d ~n in
      let faults = E.worst_case_faults p f in
      check_int "f distinct faults" f (List.length (List.sort_uniq compare faults));
      let e = Option.get (E.embed p ~faults) in
      check_int
        (Printf.sprintf "d=%d n=%d f=%d" d n f)
        (E.length_lower_bound p f) (E.length e);
      check_bool "verified" true (E.verify e))
    [ (3, 3, 1); (4, 3, 2); (5, 2, 3); (5, 3, 3); (6, 2, 4); (7, 2, 5) ]

let test_worst_case_faults_boundary () =
  (* The adversarial family is only meaningful for f ≤ d − 2 (Prop 2.2
     / §2.5); the boundary is accepted and still achieves the bound
     exactly, one past it is rejected. *)
  List.iter
    (fun (d, n) ->
      let p = W.params ~d ~n in
      let f = d - 2 in
      let faults = E.worst_case_faults p f in
      check_int "f = d-2 accepted" f (List.length faults);
      let e = Option.get (E.embed p ~faults) in
      check_int
        (Printf.sprintf "bound attained at f = d-2 on B(%d,%d)" d n)
        (E.length_lower_bound p f) (E.length e);
      check_bool "f = d-1 rejected" true
        (match E.worst_case_faults p (d - 1) with
        | exception Invalid_argument _ -> true
        | _ -> false);
      check_bool "f = d rejected" true
        (match E.worst_case_faults p d with
        | exception Invalid_argument _ -> true
        | _ -> false))
    [ (3, 3); (4, 3); (6, 2) ];
  (* f = 0 stays legal and kills nobody. *)
  check_int "f = 0 is the empty pack" 0
    (List.length (E.worst_case_faults (W.params ~d:2 ~n:4) 0))

let test_pancyclic_best_case () =
  (* Best case: if the f faults all sit on one short necklace the cycle
     can be much longer than dⁿ − nf.  E.g. faults on N(0101) in B(2,4)
     kill only 2 nodes. *)
  let p = W.params ~d:2 ~n:4 in
  let faults = [ W.of_string p "0101"; W.of_string p "1010" ] in
  let e = Option.get (E.embed p ~faults) in
  check_int "loses only the short necklace" (16 - 2) (E.length e)

(* ------------------------------------------------------------------ *)
(* distributed implementation *)

let test_distributed_matches_example () =
  let b = example_bstar () in
  let cent = E.of_bstar b in
  let dist = Dist.run b in
  Alcotest.(check (array int)) "identical successor maps" (Fa.to_array cent.E.successor)
    dist.Dist.successor;
  Alcotest.(check (array int)) "identical cycles" cent.E.cycle dist.Dist.cycle

let test_distributed_matches_random () =
  let rng = Util.Rng.create 23 in
  List.iter
    (fun (d, n) ->
      let p = W.params ~d ~n in
      for _ = 1 to 12 do
        let f = 1 + Util.Rng.int rng (d + 1) in
        let faults = Util.Rng.sample_distinct rng ~k:f ~bound:p.W.size in
        match B.compute p ~faults with
        | None -> ()
        | Some b ->
            let cent = E.of_bstar b in
            let dist = Dist.run b in
            Alcotest.(check (array int)) "successor maps" (Fa.to_array cent.E.successor)
              dist.Dist.successor
      done)
    [ (2, 5); (2, 7); (3, 3); (3, 4); (4, 3); (5, 2) ]

let test_distributed_round_complexity () =
  (* Θ(n) phases: probe takes exactly n rounds; the whole run is within
     ecc(R) + 3n + c rounds. *)
  let rng = Util.Rng.create 29 in
  List.iter
    (fun (d, n) ->
      let p = W.params ~d ~n in
      for _ = 1 to 8 do
        let f = 1 + Util.Rng.int rng (max 1 (d - 2)) in
        let faults = Util.Rng.sample_distinct rng ~k:f ~bound:p.W.size in
        match B.compute p ~faults with
        | None -> ()
        | Some b ->
            let dist = Dist.run b in
            let s = dist.Dist.stats in
            (* executed-round counts: each phase includes its round-0
               compute step, so probe = n + 1, broadcast <= ecc + 2. *)
            check_int "probe = n+1 rounds" (n + 1) s.Dist.probe_rounds;
            let ecc = B.eccentricity_of_root b in
            check_bool "broadcast within ecc+2" true (s.Dist.broadcast_rounds <= ecc + 2);
            check_bool "total O(K + n)" true (s.Dist.total_rounds <= ecc + (3 * n) + 9)
      done)
    [ (3, 3); (4, 3); (5, 2); (2, 6) ]

let test_selftimed_matches () =
  (* the fixed-schedule single-program protocol agrees with both the
     centralized algorithm and the orchestrated protocol under the
     f <= d-2 guarantee *)
  let rng = Util.Rng.create 61 in
  List.iter
    (fun (d, n) ->
      let p = W.params ~d ~n in
      for _ = 1 to 10 do
        let f = 1 + Util.Rng.int rng (d - 2) in
        let faults = Util.Rng.sample_distinct rng ~k:f ~bound:p.W.size in
        match B.compute p ~faults with
        | None -> ()
        | Some b ->
            let cent = E.of_bstar b in
            let st = Ffc.Selftimed.run b in
            Alcotest.(check (array int)) "successors" (Fa.to_array cent.E.successor)
              st.Ffc.Selftimed.successor;
            Alcotest.(check (array int)) "cycle" cent.E.cycle st.Ffc.Selftimed.cycle
      done)
    [ (3, 3); (4, 3); (5, 2); (5, 3); (6, 2) ]

let test_selftimed_schedule () =
  (* the round count is a fixed function of n, whatever the faults: the
     5n + 4 rounds of the schedule plus the round-0 compute step *)
  let p = W.params ~d:5 ~n:3 in
  List.iter
    (fun faults ->
      let b = Option.get (B.compute p ~faults) in
      check_int "5n + 5 executed rounds" (Ffc.Selftimed.schedule_length ~n:3 + 1)
        (Ffc.Selftimed.run b).Ffc.Selftimed.total_rounds)
    [ [ 0 ]; [ 7; 99 ]; [ 1; 2; 3 ] ]

let test_probe_phase_flags () =
  let b = example_bstar () in
  let flags, rounds = Dist.live_necklace_flags b in
  check_int "probe rounds = n+1" 4 rounds;
  Array.iteri
    (fun v live ->
      let faulty_v = List.mem v b.B.faults in
      if faulty_v then check_bool "faulty silent" false live
      else check_bool "flag matches necklace fault" (b.B.necklace_faulty.{v} = 0) live)
    flags

(* Fault sets far beyond f ≤ d−2, drawn as the distributed-ffc
   benchmark draws its pool: the first substream of [seed] whose B* has
   every live necklace within 2n+1 hops of the root, the regime in
   which Selftimed's fixed schedule suffices. *)
let draw_in_regime p ~seed ~f =
  let rec go k =
    let faults = Util.Rng.sample_distinct (Util.Rng.split seed k) ~k:f ~bound:p.W.size in
    match B.compute ~root_hint:1 p ~faults with
    | Some b when B.eccentricity_of_root b <= (2 * p.W.n) + 1 -> b
    | _ -> go (k + 1)
  in
  go 0

(* Every deterministic count both engines report (phase traces carry
   wall times and are left out). *)
let protocol_counts (d : Dist.t) (st : Ffc.Selftimed.t) =
  let s = d.Dist.stats in
  [
    s.Dist.probe_rounds; s.Dist.broadcast_rounds; s.Dist.choose_rounds;
    s.Dist.exchange_rounds; s.Dist.membership_rounds; s.Dist.total_rounds;
    s.Dist.messages; s.Dist.port_load; st.Ffc.Selftimed.total_rounds;
    st.Ffc.Selftimed.messages;
  ]

let test_protocol_golden_counts () =
  (* Exact protocol counts at f ≫ d−2 on B(2,10).  Columns: |B*|, then
     [protocol_counts]: probe, broadcast, choose, exchange, membership
     and total rounds, messages and port load of Distributed; total
     rounds and messages of Selftimed. *)
  let p = W.params ~d:2 ~n:10 in
  List.iter
    (fun (f, size, counts) ->
      let b = draw_in_regime p ~seed:2 ~f in
      let d = Dist.run b and st = Ffc.Selftimed.run b in
      let name = Printf.sprintf "f=%d" f in
      check_int (name ^ " |B*|") size b.B.size;
      Alcotest.(check (list int)) (name ^ " counts") counts (protocol_counts d st);
      let ring = (E.of_bstar b).E.cycle in
      Alcotest.(check (array int)) (name ^ " distributed ring") ring d.Dist.cycle;
      Alcotest.(check (array int)) (name ^ " self-timed ring") ring st.Ffc.Selftimed.cycle)
    [
      (2, 1004, [ 11; 13; 11; 2; 11; 48; 24284; 2; 55; 24284 ]);
      (32, 723, [ 11; 19; 11; 2; 11; 54; 18427; 2; 55; 18427 ]);
      (64, 532, [ 11; 22; 11; 2; 11; 57; 14254; 2; 55; 14254 ]);
    ]

let test_fault_mask_set_semantics () =
  (* [B.t] records can be built by hand, so [faults] may repeat codes
     or hold codes outside [0, dⁿ).  The probe must read it as a set,
     as [List.mem] did: same successor maps, rings and counts, and no
     exception on the out-of-range codes. *)
  List.iter
    (fun b ->
      let size = b.B.p.W.size in
      let b' = { b with B.faults = b.B.faults @ b.B.faults @ [ -1; size; size + 7 ] } in
      let probe = B.fault_probe b' in
      for v = -3 to size + 10 do
        check_bool "probe = List.mem" (List.mem v b.B.faults) (probe v)
      done;
      let d = Dist.run b and d' = Dist.run b' in
      let st = Ffc.Selftimed.run b and st' = Ffc.Selftimed.run b' in
      Alcotest.(check (list int)) "counts" (protocol_counts d st) (protocol_counts d' st');
      Alcotest.(check (array int)) "distributed successors" d.Dist.successor d'.Dist.successor;
      Alcotest.(check (array int)) "distributed ring" d.Dist.cycle d'.Dist.cycle;
      Alcotest.(check (array int)) "self-timed successors" st.Ffc.Selftimed.successor
        st'.Ffc.Selftimed.successor;
      Alcotest.(check (array int)) "self-timed ring" st.Ffc.Selftimed.cycle
        st'.Ffc.Selftimed.cycle)
    [ example_bstar (); draw_in_regime (W.params ~d:2 ~n:10) ~seed:2 ~f:32 ]

let test_selftimed_out_of_regime () =
  (* Beyond ecc(R) ≤ 2n+1 the fixed schedule can miss necklaces.
     Selftimed must then raise its typed error, never return a ring;
     the orchestrated protocol waits the broadcast out and matches the
     centralized ring. *)
  let check_case ~n ~faults ~size ~ecc =
    let p = W.params ~d:2 ~n in
    let b = Option.get (B.compute ~root_hint:1 p ~faults) in
    check_int "|B*|" size b.B.size;
    check_int "ecc(R)" ecc (B.eccentricity_of_root b);
    let ring = (E.of_bstar b).E.cycle in
    Alcotest.(check (array int)) "distributed ring" ring (Dist.run b).Dist.cycle;
    match Ffc.Selftimed.run b with
    | st ->
        Alcotest.failf "Selftimed returned a %d-node ring for a %d-node B*"
          (Array.length st.Ffc.Selftimed.cycle) size
    | exception Ffc.Pipeline_error.Error err ->
        Alcotest.(check string) "stage" "Selftimed" err.Ffc.Pipeline_error.stage
  in
  (* A 4-node necklace is never reached and keeps successor −1, yet the
     other 140 nodes close into a ring. *)
  check_case ~n:8 ~size:144 ~ecc:23
    ~faults:[ 5; 24; 35; 46; 47; 48; 66; 77; 80; 88; 103; 134; 150; 205; 213; 228 ];
  (* Late floods are still in flight when the round budget runs out. *)
  check_case ~n:9 ~size:196 ~ecc:48
    ~faults:
      [
        20; 24; 26; 52; 58; 69; 80; 85; 90; 91; 98; 99; 106; 107; 118; 131; 134; 143;
        148; 153; 159; 185; 190; 192; 211; 217; 218; 225; 237; 241; 273; 274; 283; 311;
        315; 316; 327; 334; 350; 383; 386; 388; 395; 424; 454; 459; 483; 508;
      ]

(* The allocation pin of the flat-mailbox simulator: on the three
   golden-count draws, both schedules allocate at most 10 minor words
   per delivered message — the message records themselves and the
   occasional fragment merge; the engine, the inbox and the topology
   allocate nothing per message.  [Gc.minor_words] is exact for the
   calling domain. *)
let test_allocation_per_message () =
  let p = W.params ~d:2 ~n:10 in
  List.iter
    (fun f ->
      let b = draw_in_regime p ~seed:2 ~f in
      let pin name run messages =
        let w0 = Gc.minor_words () in
        let r = run b in
        let per = (Gc.minor_words () -. w0) /. float_of_int (messages r) in
        if per > 10. then
          Alcotest.failf "%s f=%d: %.1f minor words per delivered message (pin: at most 10)"
            name f per
      in
      pin "Distributed" Dist.run (fun d -> d.Dist.stats.Dist.messages);
      pin "Selftimed" Ffc.Selftimed.run (fun st -> st.Ffc.Selftimed.messages))
    [ 2; 32; 64 ]

(* Both schedules run the same node program, so in the self-timed regime
   they must agree with each other and with the centralized ring. *)
let prop_schedules_agree =
  let gen =
    QCheck.Gen.(
      int_range 6 9 >>= fun n ->
      int_range 1 (3 * n) >>= fun f ->
      int_range 0 1_000_000 >>= fun seed -> return (n, f, seed))
  in
  QCheck.Test.make ~name:"both schedules run the same program" ~count:100
    (QCheck.make ~print:(fun (n, f, seed) -> Printf.sprintf "B(2,%d) f=%d seed=%d" n f seed) gen)
    (fun (n, f, seed) ->
      let b = draw_in_regime (W.params ~d:2 ~n) ~seed ~f in
      let d = Dist.run b and st = Ffc.Selftimed.run b in
      let cent = E.of_bstar b in
      d.Dist.successor = st.Ffc.Selftimed.successor
      && d.Dist.successor = Fa.to_array cent.E.successor
      && d.Dist.stats.Dist.messages = st.Ffc.Selftimed.messages
      && d.Dist.cycle = cent.E.cycle
      && st.Ffc.Selftimed.cycle = cent.E.cycle)

let test_lemma_2_1_arc_structure () =
  (* Lemma 2.1/2.2: H traverses each necklace in contiguous arcs, one
     per outgoing D-edge of that necklace (the incoming→outgoing paths
     of the proof).  Verify the arc count against the modified tree. *)
  let rng = Util.Rng.create 43 in
  List.iter
    (fun (d, n) ->
      let p = W.params ~d ~n in
      for _ = 1 to 15 do
        let f = 1 + Util.Rng.int rng (d + 1) in
        let faults = Util.Rng.sample_distinct rng ~k:f ~bound:p.W.size in
        match B.compute p ~faults with
        | None -> ()
        | Some b ->
            let e = E.of_bstar b in
            let m = e.E.modified in
            let adj = m.Sp.tree.Sp.adj in
            let cyc = e.E.cycle in
            let k = Array.length cyc in
            (* arcs per necklace: positions where H enters the necklace *)
            let entries = Array.make (Array.length adj.A.reps) 0 in
            Array.iteri
              (fun i v ->
                let prev = cyc.(((i - 1) mod k + k) mod k) in
                let nv = Int32.to_int adj.A.idx_of_node.{v}
                and np = Int32.to_int adj.A.idx_of_node.{prev} in
                if nv <> np then entries.(nv) <- entries.(nv) + 1)
              cyc;
            (* expected: the number of distinct w with an outgoing D-edge
               (single-necklace B* has zero D-edges and one "arc") *)
            let out_degrees = Array.make (Array.length adj.A.reps) 0 in
            for x = 0 to p.W.size - 1 do
              let beta = Ffc.Succ_digit.get m.Sp.digit x in
              if beta >= 0 && beta <> W.first_digit p x then begin
                let i = Int32.to_int adj.A.idx_of_node.{x} in
                out_degrees.(i) <- out_degrees.(i) + 1
              end
            done;
            Array.iteri
              (fun idx _ ->
                let out_degree = out_degrees.(idx) in
                let expected = max out_degree (if Array.length adj.A.reps = 1 then 0 else out_degree) in
                if Array.length adj.A.reps > 1 then
                  check_int "arcs = D out-degree" expected entries.(idx))
              adj.A.reps
      done)
    [ (3, 3); (4, 3); (2, 6); (5, 2) ]

let test_table_2_2_regression () =
  (* a deterministic, seeded slice of the Table 2.2 experiment pinned as
     a regression value: |component(R)| for B(4,5), f = 5, seed 4501 *)
  let p = W.params ~d:4 ~n:5 in
  let rng = Util.Rng.create 4501 in
  let faults = Util.Rng.sample_distinct rng ~k:5 ~bound:p.W.size in
  let r = 1 in
  let b = Option.get (B.component_of p ~faults r) in
  (* dⁿ − nf = 999 when all five faults land on distinct full necklaces *)
  check_bool "size within [999, 1004]" true (b.B.size >= 999 && b.B.size <= 1004);
  check_bool "strongly connected" true (bstar_strongly_connected b)

(* The ring walk's refusals, restated on the digit table.  A digit can
   only name a De Bruijn successor, so each redirect rewrites the digit
   of a node that has an edge to its new target.  On the fault-free
   B(2,5), B(3,3) and B(4,3) one ring node's digit is redirected (a)
   onto a node outside B* (in a one-fault embed); (b) back to the root,
   from a predecessor of the root other than the ring's last node; (c)
   onto a node already on the ring.  The agreement pass refuses a table
   that (d) marks a node outside B* as inside — here the node the
   redirect of (a) reaches, sending the walk back into B* — or (e) a
   node of B* as outside, or (f) holds a digit >= d or an escape byte
   below d = 255.  A B* whose [size] is off by ±1 is refused too.  Every
   case raises the typed error with stage "Embed", on the fresh table
   and on the workspace's own. *)
let test_close_ring_refusals () =
  List.iter
    (fun (d, n) ->
      let p = W.params ~d ~n in
      let stride = p.W.size / d in
      let ws = Ffc.Workspace.create p in
      let refuses what run =
        List.iter
          (fun (path, ws) ->
            match run ws with
            | (_ : int array) -> Alcotest.failf "B(%d,%d) %s (%s): returned a ring" d n what path
            | exception Ffc.Pipeline_error.Error err ->
                Alcotest.(check string) what "Embed" err.Ffc.Pipeline_error.stage)
          [ ("fresh", None); ("workspace", Some ws) ]
      in
      let embed ?ws faults = E.of_bstar ?ws (Option.get (B.compute ~root_hint:1 ?ws p ~faults)) in
      (* Close the ring of [faults] after writing the raw [edits] (node,
         byte) into its digit table. *)
      let redirect faults what edits =
        refuses what (fun ws ->
            let m = (embed ?ws faults).E.modified in
            List.iter (fun (x, b) -> m.Sp.digit.Ffc.Succ_digit.bytes.{x} <- b) edits;
            E.close_ring m)
      in
      let succ x b = (x mod stride * d) + b in
      (* The first ring position i, scanning [order], whose node x has
         a digit b with [ok i (succ x b)]; returns (x, b). *)
      let find_edit ring order ok =
        List.find_map
          (fun i ->
            List.find_map
              (fun b -> if ok i (succ ring.(i) b) then Some (ring.(i), b) else None)
              (List.init d Fun.id))
          order
        |> Option.get
      in
      let healthy = embed [] in
      let ring = healthy.E.cycle and k = E.length healthy in
      let pos = Array.make p.W.size (-1) in
      Array.iteri (fun i v -> pos.(v) <- i) ring;
      let root = ring.(0) in
      let x =
        List.find
          (fun x -> x <> ring.(k - 1) && x <> root)
          (List.init d (fun a -> (a * stride) + (root / d)))
      in
      redirect [] "(b) back to the root" [ (x, root mod d) ];
      let x, b =
        find_edit ring
          (List.init (k - 1) (fun j -> k - 1 - j))
          (fun i y -> pos.(y) >= 1 && pos.(y) <= i)
      in
      redirect [] "(c) onto the ring" [ (x, b) ];
      let faulty = embed [ 1 ] in
      let ring = faulty.E.cycle and k = E.length faulty in
      let in_bstar = faulty.E.bstar.B.in_bstar in
      let x, b = find_edit ring (List.init (k - 2) Fun.id) (fun _ y -> in_bstar.{y} = 0) in
      redirect [ 1 ] "(a) onto a node outside B*" [ (x, b) ];
      let y = succ x b in
      let back = List.find (fun c -> in_bstar.{succ y c} <> 0) (List.init d Fun.id) in
      redirect [ 1 ] "(d) outside marked inside" [ (x, b); (y, back) ];
      redirect [ 1 ] "(e) inside marked outside" [ (ring.(k / 2), Ffc.Succ_digit.outside) ];
      redirect [ 1 ] "(f) digit = d" [ (ring.(k / 2), d) ];
      redirect [ 1 ] "(f) escape below d = 255" [ (ring.(k / 2), Ffc.Succ_digit.escape) ];
      let b = healthy.E.bstar in
      List.iter
        (fun delta ->
          refuses
            (Printf.sprintf "|B*| off by %+d" delta)
            (fun ws -> (E.of_bstar ?ws { b with B.size = b.B.size + delta }).E.cycle))
        [ 1; -1 ])
    [ (2, 5); (3, 3); (4, 3) ]

(* ------------------------------------------------------------------ *)
(* routing (Proposition 2.2's constructive core) *)

module R = Ffc.Routing

let test_path_p_shape () =
  let p = p33 in
  let x = W.of_string p "012" in
  Alcotest.(check (list string)) "P_1 from 012" [ "012"; "121"; "211"; "111" ]
    (List.map (W.to_string p) (R.path_p p x 1));
  (* every P_a is a valid path ending at a^n *)
  List.iter
    (fun a ->
      let path = R.path_p p x a in
      check_bool "valid" true (R.verify_path p path);
      check_int "length n+1" 4 (List.length path);
      check_int "ends at a^n" (W.constant p a) (List.nth path 3))
    [ 0; 1; 2 ]

let test_path_q_shape () =
  let p = p33 in
  let y = W.of_string p "201" in
  let path = R.path_q p 0 2 y in
  Alcotest.(check (list string)) "Q_2 from 000 to 201"
    [ "000"; "002"; "022"; "220"; "201" ]
    (List.map (W.to_string p) path);
  check_bool "valid" true (R.verify_path p path)

let test_p_paths_necklace_disjoint () =
  (* the proof's first claim: interiors of the P_a are pairwise
     necklace-disjoint, for every source x *)
  List.iter
    (fun (d, n) ->
      let p = W.params ~d ~n in
      List.iter
        (fun x ->
          let interiors =
            List.map (fun a -> R.interior_necklaces p (R.path_p p x a)) (List.init d Fun.id)
          in
          let all = List.concat interiors in
          check_int
            (Printf.sprintf "x=%s" (W.to_string p x))
            (List.length all)
            (List.length (List.sort_uniq compare all)))
        (W.all p))
    [ (3, 3); (4, 2); (2, 4) ]

let test_q_paths_necklace_disjoint () =
  (* second claim: interiors of the Q_i (fixed a) are pairwise
     necklace-disjoint, for every target y *)
  List.iter
    (fun (d, n) ->
      let p = W.params ~d ~n in
      List.iter
        (fun y ->
          List.iter
            (fun a ->
              let interiors =
                List.map
                  (fun i -> R.interior_necklaces p (R.path_q p a i y))
                  (List.init (d - 1) (fun i -> i + 1))
              in
              let all = List.concat interiors in
              check_int "disjoint"
                (List.length all)
                (List.length (List.sort_uniq compare all)))
            (List.init d Fun.id))
        (W.all p))
    [ (3, 3); (4, 2) ]

let test_route_under_faults () =
  let rng = Util.Rng.create 37 in
  List.iter
    (fun (d, n) ->
      let p = W.params ~d ~n in
      for _ = 1 to 60 do
        let f = if d > 2 then 1 + Util.Rng.int rng (d - 2) else 0 in
        let faults = Util.Rng.sample_distinct rng ~k:f ~bound:p.W.size in
        let flags = Nk.mark_faulty_necklaces p faults in
        let x = Util.Rng.int rng p.W.size and y = Util.Rng.int rng p.W.size in
        if (not flags.(x)) && not flags.(y) then begin
          match R.route p ~faulty_necklace:(fun v -> flags.(v)) x y with
          | None -> Alcotest.fail "route must exist under d-2 necklace faults"
          | Some path ->
              check_bool "valid edges" true (R.verify_path p path);
              check_bool "fault-free" true (List.for_all (fun v -> not flags.(v)) path);
              check_int "starts at x" x (List.hd path);
              check_int "ends at y" y (List.nth path (List.length path - 1));
              check_bool "length <= 2n" true (List.length path <= (2 * n) + 1)
        end
      done)
    [ (3, 3); (4, 3); (5, 2); (5, 3); (7, 2) ]

let test_route_edge_cases () =
  let p = p33 in
  let no_fault _ = false in
  Alcotest.(check (option (list int))) "x = y" (Some [ 5 ]) (R.route p ~faulty_necklace:no_fault 5 5);
  (* faulty endpoint *)
  check_bool "faulty source" true (R.route p ~faulty_necklace:(fun v -> v = 5) 5 7 = None);
  (* route to a constant node *)
  (match R.route p ~faulty_necklace:no_fault (W.of_string p "012") (W.of_string p "222") with
  | Some path -> check_bool "valid" true (R.verify_path p path)
  | None -> Alcotest.fail "route to 222 must exist");
  (* route from a constant node *)
  match R.route p ~faulty_necklace:no_fault (W.of_string p "000") (W.of_string p "121") with
  | Some path ->
      check_bool "valid" true (R.verify_path p path);
      (* loop erasure must have produced a simple path *)
      check_int "simple" (List.length path) (List.length (List.sort_uniq compare path))
  | None -> Alcotest.fail "route from 000 must exist"

(* ------------------------------------------------------------------ *)
(* million-node acceptance run — a few seconds of work, so only when
   asked for explicitly (NETSIM_BIG=1); `bench scale` always runs the
   same check.  Distributed FFC on B(2,17) (131072 nodes, one fault)
   must reproduce the centralized construction exactly. *)

let test_distributed_b217 () =
  match Sys.getenv_opt "NETSIM_BIG" with
  | None | Some "" | Some "0" -> ()
  | Some _ -> (
      let p = W.params ~d:2 ~n:17 in
      match B.compute p ~faults:[ 1 ] with
      | None -> Alcotest.fail "B(2,17) f=1: no live necklace"
      | Some b ->
          let emb = E.of_bstar b in
          let dist = Dist.run b in
          Alcotest.(check bool)
            "successor maps identical" true
            (dist.Dist.successor = Fa.to_array emb.E.successor);
          Alcotest.(check bool)
            "cycles identical" true
            (dist.Dist.cycle = emb.E.cycle))

(* B(2,20) (1M nodes, one fault) through the implicit pipeline — the
   flat-state acceptance run, gated like the netsim one. *)
let test_implicit_b220 () =
  match Sys.getenv_opt "NETSIM_BIG" with
  | None | Some "" | Some "0" -> ()
  | Some _ -> (
      let p = W.params ~d:2 ~n:20 in
      match E.embed p ~faults:[ 1 ] with
      | None -> Alcotest.fail "B(2,20) f=1: no live necklace"
      | Some e ->
          check_bool "verify" true (E.verify e);
          check_int "cycle covers B*" e.E.bstar.B.size (E.length e))

(* B(2,27) (134M nodes, one fault), the largest embed the tests run.
   The off-heap arena keeps the OCaml heap flat (~zero minor words per
   node); wall-clock is dominated by the sequential BFS sweeps of
   Bstar.compute (fault [1] isolates 0ⁿ, so it takes the fallback).
   The case keeps its historical name.  Nightly big-instances job
   only. *)
let test_embed_b227 () =
  match Sys.getenv_opt "NETSIM_BIG" with
  | None | Some "" | Some "0" -> ()
  | Some _ -> (
      let p = W.params ~d:2 ~n:27 in
      match E.embed p ~faults:[ 1 ] with
      | None -> Alcotest.fail "B(2,27) f=1: no live necklace"
      | Some e ->
          check_bool "verify" true (E.verify e);
          check_int "cycle covers B*" e.E.bstar.B.size (E.length e);
          check_bool "Prop 2.3 bound" true (E.length e >= p.W.size - 28))

(* [?domains] is ignored by every embed stage (it stays only for the
   repository benchmark): passing it must change nothing. *)
let test_embed_domains_identical () =
  let p = W.params ~d:2 ~n:13 in
  (* Fault [1] isolates 0ⁿ, so B* comes from the no-majority fallback;
     the hinted case is B* straight from one BFS from R. *)
  List.iter
    (fun (root_hint, faults) ->
      let seq = Option.get (E.embed ?root_hint p ~faults) in
      let par = Option.get (E.embed ?root_hint ~domains:2 p ~faults) in
      check_bool "dist identical" true (seq.E.bstar.B.dist = par.E.bstar.B.dist);
      check_bool "successor maps identical" true (seq.E.successor = par.E.successor);
      check_bool "cycles identical" true (seq.E.cycle = par.E.cycle))
    [ (None, [ 1 ]); (Some 1, [ 500; 8000 ]) ]

(* ------------------------------------------------------------------ *)
(* workspace arena *)

(* Compare a workspace run against the fresh-allocation pipeline on
   every observable: the ws embed's fields alias arena storage, so all
   comparisons happen before the workspace's next use. *)
let check_ws_matches_fresh ?root_hint ?domains p ws faults =
  match (E.embed ?root_hint ?domains p ~faults, E.embed ?root_hint ?domains ~ws p ~faults) with
  | None, None -> ()
  | Some fresh, Some wse ->
      check_int "root" fresh.E.bstar.B.root wse.E.bstar.B.root;
      check_int "size" fresh.E.bstar.B.size wse.E.bstar.B.size;
      check_bool "in_bstar" true (fresh.E.bstar.B.in_bstar = wse.E.bstar.B.in_bstar);
      check_bool "dist" true (fresh.E.bstar.B.dist = wse.E.bstar.B.dist);
      check_bool "successor" true (fresh.E.successor = wse.E.successor);
      check_bool "cycle" true (fresh.E.cycle = wse.E.cycle);
      check_int "ecc" fresh.E.bstar.B.ecc wse.E.bstar.B.ecc;
      check_bool "ws verify" true (E.verify ~ws wse)
  | Some _, None -> Alcotest.fail "ws embed lost the ring"
  | None, Some _ -> Alcotest.fail "ws embed invented a ring"

let test_ws_back_to_back () =
  (* One arena, consecutive embeds with different fault sets (including
     none and a B*-shrinking batch): stale state from one trial must not
     leak into the next. *)
  let p = W.params ~d:3 ~n:4 in
  let ws = Ffc.Workspace.create p in
  List.iter
    (check_ws_matches_fresh p ws)
    [
      [ W.of_string p "0201" ];
      [];
      [ W.of_string p "0201"; W.of_string p "1122"; W.of_string p "0001" ];
      List.init 20 (fun i -> (7 * i) mod p.W.size);
      [];
    ]

(* Alphabets past a byte: the digit table stores a digit >= 254 as the
   escape byte plus a word side table.  On B(255,2) and B(256,2) (f = 0,
   and f = 2 by the §2.5 worst-case pack) and on B(300,1) (f = 2) the
   fresh and workspace paths agree and verify.  B(300,1)'s ring is the
   frozen reference's; the two rings near d = 256 equal digests pinned
   from the word-table successor map this table replaced (the reference
   takes seconds there).  [Live] on B(256,2), after one fault and one
   repair, equals a fresh embed. *)
let test_wide_alphabets () =
  let digest ring =
    Digest.to_hex (Digest.string (String.concat "," (List.map string_of_int (Array.to_list ring))))
  in
  List.iter
    (fun (d, n, faults, pinned) ->
      let p = W.params ~d ~n in
      let faults = match faults with `Worst f -> E.worst_case_faults p f | `Nodes l -> l in
      let e = Option.get (E.embed p ~faults) in
      check_bool "verify" true (E.verify e);
      check_bool "digit table is the ring" true (digits_are_ring e);
      (match pinned with
      | Some hex -> Alcotest.(check string) "ring digest" hex (digest e.E.cycle)
      | None ->
          let r = Option.get (Oracles.Ffc_reference.embed p ~faults) in
          check_bool "frozen reference" true (matches_reference e r));
      let ws = Ffc.Workspace.create p in
      let wse = Option.get (E.embed ~ws p ~faults) in
      check_bool "workspace = fresh" true
        (wse.E.cycle = e.E.cycle
        && Fa.to_array wse.E.successor = Fa.to_array e.E.successor
        && digits_are_ring wse && E.verify ~ws wse))
    [
      (255, 2, `Worst 0, Some "e38e724e38dbc8ae94986b9bed07d8ab");
      (255, 2, `Worst 2, Some "428cc7fae3f9de0e5e3b71d6a53213a3");
      (256, 2, `Worst 0, Some "181cfeff7bed754fa620b13291cbe381");
      (256, 2, `Worst 2, Some "3daa14294a99ed4b32432143ba6211d3");
      (300, 1, `Nodes [ 3; 7 ], None);
    ];
  let p = W.params ~d:256 ~n:2 in
  let live = Ffc.Live.create p ~faults:[] in
  let v = (5 * 256) + 9 in
  List.iter
    (fun (ev, faults) ->
      (match Ffc.Live.apply live ev with
      | Ok _ -> ()
      | Error _ -> Alcotest.fail "B(256,2): event rejected");
      let e = Option.get (E.embed p ~faults) in
      check_bool "Live ring = fresh embed" true (Ffc.Live.ring live = Some e.E.cycle);
      for x = 0 to p.W.size - 1 do
        if Ffc.Live.successor live x <> e.E.successor.{x} then
          Alcotest.failf "B(256,2): Live successor of %d" x
      done)
    [ (Ffc.Live.Fault v, [ v ]); (Ffc.Live.Repair v, []) ]

let test_ws_wrong_params () =
  let ws = Ffc.Workspace.create (W.params ~d:3 ~n:4) in
  Alcotest.check_raises "d/n mismatch"
    (Invalid_argument "Ffc.Workspace: workspace built for a different (d, n)")
    (fun () -> ignore (E.embed ~ws (W.params ~d:2 ~n:6) ~faults:[]))

let test_ws_domains_identical () =
  (* The ignored [?domains] together with the arena: still identical
     to the fresh embed. *)
  let p = W.params ~d:2 ~n:13 in
  let ws = Ffc.Workspace.create p in
  check_ws_matches_fresh ~domains:2 p ws [ 1; 500; 8000 ];
  check_ws_matches_fresh ~domains:2 p ws [ 2; 3 ];
  (* Those fault sets isolate 0ⁿ and take Bstar.compute's no-majority
     fallback; this one is the one-BFS path embed-batch times. *)
  check_ws_matches_fresh ~root_hint:1 ~domains:2 p ws [ 500; 8000 ]

(* workspace.mli's steady-state promise: a warm embed allocates almost
   nothing beyond its result.  Per embed, after two warm-ups, at most 512
   minor words (closures and small records, independent of dⁿ) and at
   most |B*| + m + 256 major words, where the fresh ring (|B*| words)
   and the exact-size necklace [reps] copy (m words) are the expected
   major allocations.  Minor words come from [Gc.minor_words] around the
   embed alone; major words from [Gc.counters] read outside that window,
   after a [Gc.minor ()] so no promotion falls inside it.  The arena's
   off-heap [Flatarr] storage shows up in neither counter. *)
let test_ws_steady_allocation () =
  List.iter
    (fun (d, n, root_hint) ->
      let p = W.params ~d ~n in
      let ws = Ffc.Workspace.create p in
      let embed () = Option.get (E.embed ?root_hint ~ws p ~faults:[ 1 ]) in
      ignore (embed ());
      ignore (embed ());
      for _ = 1 to 5 do
        Gc.minor ();
        let _, _, major0 = Gc.counters () in
        let minor0 = Gc.minor_words () in
        let e = embed () in
        let minor = Gc.minor_words () -. minor0 in
        let _, _, major1 = Gc.counters () in
        let major = major1 -. major0 in
        let ceiling =
          e.E.bstar.B.size + Array.length e.E.modified.Sp.tree.Sp.adj.A.reps + 256
        in
        if minor > 512. || major > float_of_int ceiling then
          Alcotest.failf
            "B(%d,%d)%s: %.0f minor words (ceiling 512), %.0f major words (ceiling %d)" d n
            (if Option.is_some root_hint then " hint 1" else "")
            minor major ceiling
      done)
    [ (2, 10, None); (2, 16, None); (2, 16, Some 1); (3, 8, Some 1) ]

(* ------------------------------------------------------------------ *)
(* campaign *)

let strip_measurements (pt : Ffc.Campaign.point) =
  { pt with Ffc.Campaign.wall_s = 0.; minor_words_per_trial = 0.; major_words_per_trial = 0. }

let test_campaign_identity () =
  (* The bit-identity contract: statistics depend only on (seed, f,
     trial) — not on domain count, and not on whether trials reuse the
     arena or allocate fresh. *)
  let run ?domains ?reuse () =
    List.map strip_measurements
      (Ffc.Campaign.run ?domains ?reuse ~trials:6 ~seed:0xabc ~fs:[ 1; 3; 7 ]
         ~d:3 ~n:3 ())
  in
  let seq = run () in
  check_bool "domains:2 identical" true (run ~domains:2 () = seq);
  check_bool "domains:4 identical" true (run ~domains:4 () = seq);
  (* more domains than trials: one worker per trial *)
  check_bool "domains:8 identical" true (run ~domains:8 () = seq);
  check_bool "reuse:false identical" true (run ~reuse:false () = seq)

let test_campaign_bounds () =
  (* In the guaranteed regimes every trial must meet the bound, and the
     campaign must mark exactly those regimes applicable. *)
  let pts = Ffc.Campaign.run ~trials:10 ~fs:[ 1; 2; 3 ] ~d:4 ~n:4 () in
  List.iter
    (fun (pt : Ffc.Campaign.point) ->
      if pt.Ffc.Campaign.f <= 2 then begin
        check_int "bound applies (f <= d-2)" pt.Ffc.Campaign.trials
          pt.Ffc.Campaign.bound_applicable;
        check_int "bound holds" pt.Ffc.Campaign.trials pt.Ffc.Campaign.bound_ok;
        check_int "all embedded" pt.Ffc.Campaign.trials pt.Ffc.Campaign.embedded
      end
      else check_int "no bound at f = d-1" 0 pt.Ffc.Campaign.bound_applicable;
      check_int "all verified" pt.Ffc.Campaign.embedded pt.Ffc.Campaign.verified)
    pts

let test_campaign_binary_single_fault () =
  (* Proposition 2.3: d = 2, f = 1 is covered even though d − 2 < 1. *)
  let p = W.params ~d:2 ~n:8 in
  (match Ffc.Campaign.length_bound p 1 with
  | Some b -> check_int "2^8 - 9" (p.W.size - 9) b
  | None -> Alcotest.fail "Proposition 2.3 bound missing at d = 2, f = 1");
  Alcotest.(check bool)
    "no bound at f = 2" true
    (Option.is_none (Ffc.Campaign.length_bound p 2));
  let pts = Ffc.Campaign.run ~trials:10 ~fs:[ 1 ] ~d:2 ~n:8 () in
  List.iter
    (fun (pt : Ffc.Campaign.point) ->
      check_int "applicable" pt.Ffc.Campaign.trials pt.Ffc.Campaign.bound_applicable;
      check_int "holds" pt.Ffc.Campaign.trials pt.Ffc.Campaign.bound_ok)
    pts

(* ------------------------------------------------------------------ *)
(* properties *)

let qsuite =
  let open QCheck in
  let scenario =
    Gen.(
      oneofl [ (2, 5); (2, 6); (3, 3); (3, 4); (4, 2); (4, 3); (5, 2) ] >>= fun (d, n) ->
      int_range 1 6 >>= fun f ->
      int_range 0 1000000 >>= fun seed -> return (d, n, f, seed))
  in
  let hinted =
    Gen.(
      oneofl [ (2, 4); (2, 5); (2, 6); (3, 3); (3, 4); (4, 2); (4, 3); (5, 2) ]
      >>= fun (d, n) ->
      int_range 1 6 >>= fun f ->
      int_range 0 1000000 >>= fun seed ->
      int_range 0 ((W.params ~d ~n).W.size - 1) >>= fun root_hint ->
      return (d, n, f, seed, root_hint))
  in
  [
    Test.make ~name:"FFC output is always a fault-free cycle of B*" ~count:150
      (make scenario) (fun (d, n, f, seed) ->
        let p = W.params ~d ~n in
        let rng = Util.Rng.create seed in
        let f = min f (p.W.size - 1) in
        let faults = Util.Rng.sample_distinct rng ~k:f ~bound:p.W.size in
        match E.embed p ~faults with
        | None -> true
        | Some e -> E.verify e);
    Test.make ~name:"cycle length = |B*| always" ~count:150 (make scenario)
      (fun (d, n, f, seed) ->
        let p = W.params ~d ~n in
        let rng = Util.Rng.create seed in
        let f = min f (p.W.size - 1) in
        let faults = Util.Rng.sample_distinct rng ~k:f ~bound:p.W.size in
        match E.embed p ~faults with
        | None -> true
        | Some e -> E.length e = e.E.bstar.B.size);
    Test.make ~name:"implicit pipeline = frozen list-based reference" ~count:150
      (make scenario) (fun (d, n, f, seed) ->
        let p = W.params ~d ~n in
        let rng = Util.Rng.create seed in
        let f = min f (p.W.size - 1) in
        let faults = Util.Rng.sample_distinct rng ~k:f ~bound:p.W.size in
        match (E.embed p ~faults, Oracles.Ffc_reference.embed p ~faults) with
        | None, None -> true
        | Some e, Some r -> matches_reference e r && dist_matches_traversal e.E.bstar
        | _ -> false);
    (* The hint lands anywhere in [0, dⁿ): on a live necklace of B*, on
       a faulty necklace, or in a smaller component — so both of
       Bstar.compute's paths run. *)
    Test.make ~name:"hinted pipeline = frozen list-based reference" ~count:150
      (make hinted) (fun (d, n, f, seed, root_hint) ->
        let p = W.params ~d ~n in
        let rng = Util.Rng.create seed in
        let f = min f (p.W.size - 1) in
        let faults = Util.Rng.sample_distinct rng ~k:f ~bound:p.W.size in
        match
          (E.embed ~root_hint p ~faults, Oracles.Ffc_reference.embed ~root_hint p ~faults)
        with
        | None, None -> true
        | Some e, Some r -> matches_reference e r && dist_matches_traversal e.E.bstar
        | _ -> false);
    Test.make ~name:"length >= d^n - nf whenever f <= d-2" ~count:150 (make scenario)
      (fun (d, n, f, seed) ->
        let p = W.params ~d ~n in
        let rng = Util.Rng.create seed in
        let f = min f (max 0 (d - 2)) in
        QCheck.assume (f >= 1);
        let faults = Util.Rng.sample_distinct rng ~k:f ~bound:p.W.size in
        match E.embed p ~faults with
        | None -> false
        | Some e -> E.length e >= E.length_lower_bound p f);
    (* One workspace per (d, n), cached across the whole qcheck run —
       every case after the first per instance is a genuine arena
       *reuse*, so stale-state leaks are what this property hunts. *)
    (let cache = Hashtbl.create 8 in
     Test.make ~name:"workspace pipeline = fresh pipeline" ~count:150
       (make scenario) (fun (d, n, f, seed) ->
         let p = W.params ~d ~n in
         let ws =
           match Hashtbl.find_opt cache (d, n) with
           | Some ws -> ws
           | None ->
               let ws = Ffc.Workspace.create p in
               Hashtbl.add cache (d, n) ws;
               ws
         in
         let rng = Util.Rng.create seed in
         let f = min f (p.W.size - 1) in
         let faults = Util.Rng.sample_distinct rng ~k:f ~bound:p.W.size in
         match (E.embed p ~faults, E.embed ~ws p ~faults) with
         | None, None -> true
         | Some fresh, Some wse ->
             fresh.E.bstar.B.root = wse.E.bstar.B.root
             && fresh.E.bstar.B.size = wse.E.bstar.B.size
             && fresh.E.bstar.B.in_bstar = wse.E.bstar.B.in_bstar
             && fresh.E.successor = wse.E.successor
             && fresh.E.cycle = wse.E.cycle
             && fresh.E.bstar.B.ecc = wse.E.bstar.B.ecc
             && fresh.E.bstar.B.dist = wse.E.bstar.B.dist
             && digits_are_ring fresh && digits_are_ring wse
             && E.verify ~ws wse
         | _ -> false));
  ]

let () =
  Alcotest.run "ffc"
    [
      ( "bstar",
        [
          Alcotest.test_case "example 2.1 B*" `Quick test_bstar_example;
          Alcotest.test_case "no faults" `Quick test_bstar_no_faults;
          Alcotest.test_case "all faulty" `Quick test_bstar_all_faulty;
          Alcotest.test_case "component_of / isolation" `Quick test_bstar_component_of;
          Alcotest.test_case "root hint" `Quick test_bstar_root_hint;
          Alcotest.test_case "no-majority fallback" `Quick test_bstar_fallback;
          Alcotest.test_case "eccentricity" `Quick test_bstar_eccentricity;
        ] );
      ( "adjacency",
        [
          Alcotest.test_case "Figure 2.3" `Quick test_adjacency_figure_2_3;
          Alcotest.test_case "entry/exit nodes" `Quick test_adjacency_entry_exit;
          Alcotest.test_case "unique alpha-w per necklace" `Quick test_adjacency_unique_alpha_w;
        ] );
      ( "spanning",
        [
          Alcotest.test_case "height-one (example)" `Quick test_spanning_height_one;
          Alcotest.test_case "height-one (random)" `Quick test_spanning_height_one_random;
          Alcotest.test_case "modified tree groups" `Quick test_modified_groups;
        ] );
      ( "embedding",
        [
          Alcotest.test_case "Example 2.1 cycle" `Quick test_example_2_1_cycle;
          Alcotest.test_case "Example 2.1 successors" `Quick test_example_2_1_successors;
          Alcotest.test_case "no faults = De Bruijn sequence" `Quick test_embed_no_faults;
          Alcotest.test_case "Prop 2.2 length bound" `Quick test_prop_2_2_bound;
          Alcotest.test_case "Prop 2.2 diameter/size" `Quick test_prop_2_2_diameter;
          Alcotest.test_case "Prop 2.3 binary single fault" `Quick test_prop_2_3_binary_single_fault;
          Alcotest.test_case "worst-case optimality" `Quick test_worst_case_optimality;
          Alcotest.test_case "worst-case fault-pack boundary" `Quick test_worst_case_faults_boundary;
          Alcotest.test_case "best case (short necklace)" `Quick test_pancyclic_best_case;
          Alcotest.test_case "Lemma 2.1 arc structure" `Quick test_lemma_2_1_arc_structure;
          Alcotest.test_case "Table 2.2 regression slice" `Quick test_table_2_2_regression;
          Alcotest.test_case "ring walk refuses broken maps" `Quick test_close_ring_refusals;
          Alcotest.test_case "domains:2 bit-identical" `Quick test_embed_domains_identical;
          Alcotest.test_case "B(2,20) implicit acceptance (NETSIM_BIG=1)" `Slow
            test_implicit_b220;
          Alcotest.test_case "B(2,27) multicore acceptance (NETSIM_BIG=1)" `Slow
            test_embed_b227;
        ] );
      ( "workspace",
        [
          Alcotest.test_case "back-to-back reuse" `Quick test_ws_back_to_back;
          Alcotest.test_case "wrong params rejected" `Quick test_ws_wrong_params;
          Alcotest.test_case "ws + domains:2 bit-identical" `Quick
            test_ws_domains_identical;
          Alcotest.test_case "warm embed allocation ceiling" `Quick
            test_ws_steady_allocation;
          Alcotest.test_case "alphabets past a byte" `Quick test_wide_alphabets;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "bit-identical across domains/reuse" `Quick
            test_campaign_identity;
          Alcotest.test_case "Prop 2.2 bounds hold" `Quick test_campaign_bounds;
          Alcotest.test_case "Prop 2.3 d=2 f=1" `Quick test_campaign_binary_single_fault;
        ] );
      ( "routing",
        [
          Alcotest.test_case "P_a shape" `Quick test_path_p_shape;
          Alcotest.test_case "Q_i shape" `Quick test_path_q_shape;
          Alcotest.test_case "P paths necklace-disjoint" `Quick test_p_paths_necklace_disjoint;
          Alcotest.test_case "Q paths necklace-disjoint" `Quick test_q_paths_necklace_disjoint;
          Alcotest.test_case "route under faults" `Quick test_route_under_faults;
          Alcotest.test_case "route edge cases" `Quick test_route_edge_cases;
        ] );
      ( "distributed",
        [
          Alcotest.test_case "matches centralized (example)" `Quick test_distributed_matches_example;
          Alcotest.test_case "matches centralized (random)" `Quick test_distributed_matches_random;
          Alcotest.test_case "round complexity" `Quick test_distributed_round_complexity;
          Alcotest.test_case "self-timed matches" `Quick test_selftimed_matches;
          Alcotest.test_case "self-timed fixed schedule" `Quick test_selftimed_schedule;
          Alcotest.test_case "probe flags" `Quick test_probe_phase_flags;
          Alcotest.test_case "golden counts at f >> d-2" `Quick test_protocol_golden_counts;
          Alcotest.test_case "fault mask keeps set semantics" `Quick
            test_fault_mask_set_semantics;
          Alcotest.test_case "self-timed fails loudly out of regime" `Quick
            test_selftimed_out_of_regime;
          Alcotest.test_case "B(2,17) matches centralized (NETSIM_BIG=1)" `Slow
            test_distributed_b217;
          Alcotest.test_case "at most 10 minor words per message" `Quick
            test_allocation_per_message;
          QCheck_alcotest.to_alcotest ~long:false prop_schedules_agree;
        ] );
      ("properties", List.map (fun t -> QCheck_alcotest.to_alcotest ~long:false t) qsuite);
    ]
