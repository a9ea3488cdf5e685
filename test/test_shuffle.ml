(* Tests for shuffle-exchange graphs. *)

module SE = Shuffle.Shuffle_exchange
module W = Debruijn.Word
module D = Graphlib.Digraph

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let sizes = [ (2, 3); (2, 4); (2, 5); (3, 2); (3, 3); (4, 2) ]

let test_symmetric () =
  List.iter
    (fun (d, n) ->
      let se = SE.create ~d ~n in
      D.iter_edges
        (fun u v -> check_bool "symmetric" true (D.mem_edge se.SE.graph v u))
        se.SE.graph)
    sizes

let test_every_edge_classified () =
  List.iter
    (fun (d, n) ->
      let se = SE.create ~d ~n in
      D.iter_edges
        (fun u v ->
          check_bool "shuffle or exchange" true
            (SE.is_shuffle_edge se (u, v) || SE.is_exchange_edge se (u, v)))
        se.SE.graph)
    sizes

let test_binary_degrees () =
  (* in the binary SE every node has one exchange partner and at most
     two shuffle partners *)
  let se = SE.create ~d:2 ~n:4 in
  let mn, mx = SE.degree_bounds se in
  check_bool "min degree >= 1" true (mn >= 1);
  check_bool "max degree <= 3" true (mx <= 3)

let test_orbit_is_necklace () =
  List.iter
    (fun (d, n) ->
      let se = SE.create ~d ~n in
      let p = se.SE.p in
      List.iter
        (fun x ->
          Alcotest.(check (list int))
            (Printf.sprintf "orbit of %s" (W.to_string p x))
            (Debruijn.Necklace.nodes p x) (SE.shuffle_orbit se x))
        (W.all p))
    [ (2, 4); (3, 3) ]

let test_necklace_count_matches_chapter_4 () =
  List.iter
    (fun (d, n) ->
      let se = SE.create ~d ~n in
      check_int
        (Printf.sprintf "SE(%d,%d)" d n)
        (Necklace_count.Count.total ~d ~n)
        (SE.necklace_count se))
    sizes

let test_connected () =
  List.iter
    (fun (d, n) ->
      let se = SE.create ~d ~n in
      let _, components = Oracles.Traversal.weak_components se.SE.graph in
      check_int "connected" 1 components)
    sizes

let test_exchange_edges_complete_on_last_digit () =
  (* nodes sharing a prefix form an exchange clique *)
  let se = SE.create ~d:3 ~n:2 in
  let p = se.SE.p in
  List.iter
    (fun x ->
      let base = x - W.last_digit p x in
      for a = 0 to 2 do
        if base + a <> x then
          check_bool "exchange edge present" true (D.mem_edge se.SE.graph x (base + a))
      done)
    (W.all p)

let () =
  Alcotest.run "shuffle"
    [
      ( "structure",
        [
          Alcotest.test_case "symmetric" `Quick test_symmetric;
          Alcotest.test_case "edges classified" `Quick test_every_edge_classified;
          Alcotest.test_case "binary degrees" `Quick test_binary_degrees;
          Alcotest.test_case "orbit = necklace" `Quick test_orbit_is_necklace;
          Alcotest.test_case "necklace counts (Ch. 4)" `Quick test_necklace_count_matches_chapter_4;
          Alcotest.test_case "connected" `Quick test_connected;
          Alcotest.test_case "exchange cliques" `Quick test_exchange_edges_complete_on_last_digit;
        ] );
    ]
