(* Tests for Chapter 3: disjoint Hamiltonian cycles and edge faults. *)

module G = Galois.Gf
module GP = Galois.Gf_poly
module W = Debruijn.Word
module S = Debruijn.Sequence
module C = Graphlib.Cycle
module L = Dhc.Lfsr
module SC = Dhc.Shift_cycles
module St = Dhc.Strategies
module Co = Dhc.Compose
module P = Dhc.Psi
module EF = Dhc.Edge_fault
module M = Dhc.Mdb
module Str = Dhc.Stream
module R = Oracles.Dhc_reference
module Ca = Dhc.Campaign

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* The thesis's Example 3.1 setup: GF(5), p(x) = x² − x − 3. *)
let gf5 = G.create 5
let example_3_1_poly = GP.of_coeffs gf5 [ G.of_int gf5 (-3); G.of_int gf5 (-1); 1 ]

(* ------------------------------------------------------------------ *)
(* Lfsr *)

let test_example_3_1_sequence () =
  let lfsr = L.of_poly gf5 example_3_1_poly in
  let c = L.maximal_cycle ~init:[| 0; 1 |] lfsr in
  Alcotest.(check (array int)) "the thesis's maximal cycle in B(5,2)"
    [| 0; 1; 1; 4; 2; 4; 0; 2; 2; 3; 4; 3; 0; 4; 4; 1; 3; 1; 0; 3; 3; 2; 1; 2 |]
    c;
  check_bool "satisfies recurrence" true (L.satisfies_recurrence lfsr c)

let test_lfsr_rejects_non_primitive () =
  (* x² + 1 over GF(5) is not primitive. *)
  let bad = GP.of_coeffs gf5 [ 1; 0; 1 ] in
  Alcotest.check_raises "non-primitive rejected"
    (Invalid_argument "Lfsr.of_poly: polynomial is not primitive") (fun () ->
      ignore (L.of_poly gf5 bad))

let test_maximal_cycle_properties () =
  (* A maximal cycle visits every node except 0ⁿ, over several fields. *)
  List.iter
    (fun (d, n) ->
      let field = G.create d in
      let lfsr = L.make field ~n in
      let c = L.maximal_cycle lfsr in
      let p = W.params ~d ~n in
      check_int "period" (p.W.size - 1) (Array.length c);
      check_bool "is a cycle" true (S.is_cycle_sequence p c);
      let nodes = S.nodes_of_sequence p c in
      check_bool "omits 0^n only" true
        (not (Array.exists (fun v -> v = 0) nodes)
        && Array.length nodes = p.W.size - 1))
    [ (2, 3); (2, 5); (3, 2); (3, 3); (4, 2); (5, 2); (7, 2); (8, 2); (9, 2) ]

let test_lfsr_bad_init () =
  let lfsr = L.of_poly gf5 example_3_1_poly in
  Alcotest.check_raises "zero init rejected"
    (Invalid_argument "Lfsr.maximal_cycle: init must be nonzero") (fun () ->
      ignore (L.maximal_cycle ~init:[| 0; 0 |] lfsr));
  Alcotest.check_raises "wrong length"
    (Invalid_argument "Lfsr.maximal_cycle: init length") (fun () ->
      ignore (L.maximal_cycle ~init:[| 1 |] lfsr))

(* ------------------------------------------------------------------ *)
(* Shift_cycles: Lemmas 3.1–3.3 *)

let test_shifted_are_cycles () =
  List.iter
    (fun (d, n) ->
      let t = SC.make ~d ~n in
      let p = t.SC.p in
      List.iter
        (fun s ->
          let c = SC.shifted t s in
          check_bool "Lemma 3.1: s+C is a cycle" true (S.is_cycle_sequence p c);
          (* Lemma 3.2: affine recurrence with constant s(1 − ω). *)
          let f = t.SC.lfsr.L.field in
          let affine = G.mul f s (G.sub f 1 t.SC.lfsr.L.omega) in
          check_bool "Lemma 3.2: affine recurrence" true
            (L.satisfies_recurrence t.SC.lfsr ~affine c);
          (* s + C omits exactly sⁿ. *)
          let nodes = S.nodes_of_sequence p c in
          check_bool "omits s^n" true
            (not (Array.exists (fun v -> v = W.constant p s) nodes)))
        (List.init d Fun.id))
    [ (2, 4); (3, 3); (4, 2); (5, 2); (7, 2) ]

let test_shifted_edge_disjoint_partition () =
  (* Lemma 3.3 + the partition claim: the d cycles are pairwise
     edge-disjoint and cover all d(dⁿ−1) non-loop edges. *)
  List.iter
    (fun (d, n) ->
      let t = SC.make ~d ~n in
      let p = t.SC.p in
      let all_windows =
        List.concat_map
          (fun s -> S.edge_windows p (SC.shifted t s))
          (List.init d Fun.id)
      in
      let distinct = List.sort_uniq compare all_windows in
      check_int "pairwise disjoint (no duplicate edge)" (List.length all_windows)
        (List.length distinct);
      check_int "covers all non-loop edges" (d * (p.W.size - 1)) (List.length distinct))
    [ (2, 4); (3, 3); (4, 2); (5, 2); (8, 2); (9, 2) ]

let test_owner_of_edge () =
  List.iter
    (fun (d, n) ->
      let t = SC.make ~d ~n in
      let p = t.SC.p in
      List.iter
        (fun s ->
          let cyc = S.cycle_of_sequence p (SC.shifted t s) in
          List.iter
            (fun e -> check_int "owner" s (SC.owner_of_edge t e))
            (C.edges_of_cycle cyc))
        (List.init d Fun.id))
    [ (3, 3); (4, 2); (5, 2) ]

let test_alpha_equations () =
  (* Eq. 3.3 consistency: α̂ = a₀α + s(1 − a₀), and the k ↔ α̂ relation. *)
  List.iter
    (fun d ->
      let t = SC.make ~d ~n:2 in
      let f = t.SC.lfsr.L.field in
      let a0 = t.SC.lfsr.L.coeffs.(0) in
      List.iter
        (fun s ->
          List.iter
            (fun k ->
              if k <> s then begin
                let a_hat = SC.alpha_hat t ~s ~k in
                let a = SC.alpha_for t ~s ~alpha_hat:a_hat in
                (* forward check of Eq. 3.3 *)
                let rhs = G.add f (G.mul f a0 a) (G.mul f s (G.sub f 1 a0)) in
                check_int "Eq 3.3" a_hat rhs;
                check_bool "alpha <> s" true (a <> s)
              end)
            (G.elements f))
        (G.elements f))
    [ 3; 4; 5; 7; 9 ]

let test_hamiltonize () =
  List.iter
    (fun (d, n) ->
      let t = SC.make ~d ~n in
      let p = t.SC.p in
      let g = Debruijn.Graph.b p in
      List.iter
        (fun s ->
          List.iter
            (fun k ->
              if k <> s then begin
                let h = SC.hamiltonize t ~s ~k in
                check_bool "H_s is a De Bruijn sequence" true (S.is_de_bruijn_sequence p h);
                check_bool "Hamiltonian" true
                  (C.is_hamiltonian g (S.cycle_of_sequence p h))
              end)
            (List.init d Fun.id))
        (List.init d Fun.id))
    [ (2, 3); (3, 2); (4, 2); (5, 2); (3, 3) ]

let test_hamiltonize_new_edges_location () =
  (* The two new edges of H_s live in k + C and (2s − k) + C. *)
  let t = SC.make ~d:5 ~n:2 in
  let f = t.SC.lfsr.L.field in
  let p = t.SC.p in
  List.iter
    (fun s ->
      List.iter
        (fun k ->
          if k <> s then begin
            let a_hat = SC.alpha_hat t ~s ~k in
            let a = SC.alpha_for t ~s ~alpha_hat:a_hat in
            let sn = W.constant p s in
            let exit_node = W.encode p [| a; s |] in
            let entry_node = W.encode p [| s; a_hat |] in
            check_int "s^n alpha_hat in k+C" k (SC.owner_of_edge t (sn, entry_node));
            check_int "alpha s^n in (2s-k)+C"
              (G.sub f (G.add f s s) k)
              (SC.owner_of_edge t (exit_node, sn))
          end)
        (G.elements f))
    (G.elements f)

let test_hamiltonize_k_eq_s () =
  let t = SC.make ~d:3 ~n:2 in
  Alcotest.check_raises "k = s rejected"
    (Invalid_argument "Shift_cycles.hamiltonize: k must differ from s") (fun () ->
      ignore (SC.hamiltonize t ~s:1 ~k:1))

(* ------------------------------------------------------------------ *)
(* Strategies and the thesis's Example 3.4 *)

let test_example_3_4 () =
  (* d = 5, n = 2 with the thesis's polynomial: λ = 2 (2 = λ¹, odd), so
     f(x) = 2x; selected shifts {1, 4}; H₁ and H₄ as printed. *)
  let t = SC.make_with_poly ~d:5 ~n:2 example_3_1_poly in
  let choice = St.choose ~p:5 in
  (match choice with
  | St.S3 { lambda; a } ->
      check_int "2 = lambda^a odd" 2 (Numtheory.pow_mod lambda a 5);
      check_int "a odd" 1 (a mod 2)
  | _ -> Alcotest.fail "expected S3 for p = 5");
  let f = St.replacement_function t choice in
  let shifts = St.selected_shifts gf5 choice in
  Alcotest.(check (list int)) "shifts {1,4}" [ 1; 4 ] shifts;
  let h1 = SC.hamiltonize t ~s:1 ~k:(f 1) in
  let h4 = SC.hamiltonize t ~s:4 ~k:(f 4) in
  check_bool "H1 matches thesis" true
    (S.equal_cyclically h1
       [| 1; 2; 2; 0; 3; 0; 1; 1; 3; 3; 4; 0; 4; 1; 0; 0; 2; 4; 2; 1; 4; 4; 3; 2; 3 |]);
  check_bool "H4 matches thesis" true
    (S.equal_cyclically h4
       [| 4; 0; 0; 3; 1; 3; 4; 1; 1; 2; 3; 2; 4; 3; 3; 0; 2; 0; 4; 4; 2; 2; 1; 0; 1 |]);
  check_bool "disjoint" true (S.edge_disjoint (W.params ~d:5 ~n:2) h1 h4)

let test_strategy_choices () =
  check_bool "p=2 uses S1" true (St.choose ~p:2 = St.S1);
  (* p = 13: thesis shows both conditions hold; (13−1)/2 = 6 even, so S2
     must be chosen (it admits H₀). *)
  (match St.choose ~p:13 with
  | St.S2 { lambda; a; b } ->
      check_int "2 = l^a + l^b" 2
        ((Numtheory.pow_mod lambda a 13 + Numtheory.pow_mod lambda b 13) mod 13);
      check_int "a odd" 1 (a mod 2);
      check_int "b odd" 1 (b mod 2)
  | _ -> Alcotest.fail "expected S2 for p = 13");
  (* p = 5: only condition (a) per the thesis. *)
  check_bool "p=5 condition (b) fails" false (St.condition_b_holds ~p:5);
  check_bool "p=13 condition (b) holds" true (St.condition_b_holds ~p:13);
  (* p ≡ ±1 (mod 8) implies condition (b) (2 is a QR). *)
  List.iter
    (fun p ->
      if p mod 8 = 1 || p mod 8 = 7 then
        check_bool (Printf.sprintf "p=%d" p) true (St.condition_b_holds ~p))
    [ 7; 17; 23; 31 ]

let test_replacement_function_fixed_point_free () =
  List.iter
    (fun d ->
      let t = SC.make ~d ~n:2 in
      let field = t.SC.lfsr.L.field in
      let p = match Numtheory.is_prime_power d with Some (p, _) -> p | None -> assert false in
      let f = St.replacement_function t (St.choose ~p) in
      List.iter
        (fun x -> check_bool "f(x) <> x" true (f x <> x))
        (G.elements field))
    [ 2; 3; 4; 5; 7; 8; 9; 11; 13; 16; 25; 27 ]

let test_disjoint_hcs_prime_powers () =
  List.iter
    (fun (d, n) ->
      let p = W.params ~d ~n in
      let g = Debruijn.Graph.b p in
      let hcs = St.disjoint_hamiltonian_cycles ~d ~n in
      check_int "count = psi" (P.psi d) (List.length hcs);
      let cycles = List.map (S.cycle_of_sequence p) hcs in
      List.iter
        (fun c -> check_bool "hamiltonian" true (C.is_hamiltonian g c))
        cycles;
      check_bool "pairwise disjoint" true (C.pairwise_edge_disjoint cycles))
    [ (2, 4); (3, 3); (4, 2); (4, 3); (5, 2); (7, 2); (8, 2); (9, 2); (11, 2); (13, 2) ]

(* ------------------------------------------------------------------ *)
(* Compose: Example 3.5 and the general construction *)

let test_example_3_5 () =
  let a = [| 0; 0; 1; 1 |] and b = [| 0; 0; 2; 2; 1; 2; 0; 1; 1 |] in
  let ab = Co.product ~s:2 ~t:3 a b in
  Alcotest.(check (array int)) "the thesis's (A,B) in B(6,2)"
    [| 0;0;5;5;1;2;3;4;1;0;3;5;2;1;5;3;1;1;3;3;2;2;4;5;0;1;4;3;0;2;5;4;2;0;4;4 |]
    ab;
  check_bool "is a Hamiltonian cycle of B(6,2)" true
    (S.is_de_bruijn_sequence (W.params ~d:6 ~n:2) ab)

let test_product_errors () =
  Alcotest.check_raises "not coprime"
    (Invalid_argument "Compose.product: s and t must be coprime") (fun () ->
      ignore (Co.product ~s:2 ~t:4 [| 0; 0; 1; 1 |] [| 0 |]));
  Alcotest.check_raises "bad lengths"
    (Invalid_argument "Compose.product: lengths are not s^n and t^n for a common n")
    (fun () -> ignore (Co.product ~s:2 ~t:3 [| 0; 0; 1; 1 |] [| 0; 1; 2 |]))

let test_disjoint_hcs_composite () =
  List.iter
    (fun (d, n) ->
      let p = W.params ~d ~n in
      let g = Debruijn.Graph.b p in
      let hcs = Co.disjoint_hamiltonian_cycles ~d ~n in
      check_int "count = psi" (P.psi d) (List.length hcs);
      let cycles = List.map (S.cycle_of_sequence p) hcs in
      List.iter (fun c -> check_bool "hamiltonian" true (C.is_hamiltonian g c)) cycles;
      check_bool "pairwise disjoint" true (C.pairwise_edge_disjoint cycles))
    [ (6, 2); (10, 2); (12, 2); (15, 2); (6, 3); (20, 2) ]

(* ------------------------------------------------------------------ *)
(* Psi: Tables 3.1 / 3.2 *)

let test_table_3_1 () =
  let expected =
    [ (2, 1); (3, 1); (4, 3); (5, 2); (6, 1); (7, 3); (8, 7); (9, 4); (10, 2);
      (11, 5); (12, 3); (13, 7); (14, 3); (15, 2); (16, 15); (17, 9); (18, 4);
      (19, 9); (20, 6); (21, 3); (22, 5); (23, 11); (24, 7); (25, 12); (26, 7);
      (27, 13); (28, 9); (29, 15); (30, 2); (31, 15); (32, 31); (33, 5);
      (34, 9); (35, 6); (36, 12); (37, 19); (38, 9) ]
  in
  List.iter
    (fun (d, want) -> check_int (Printf.sprintf "psi(%d)" d) want (P.psi d))
    expected

let test_phi_bound () =
  (* φ(pᵉ) = pᵉ − 2; sanity values for composites. *)
  List.iter
    (fun (d, want) -> check_int (Printf.sprintf "phi(%d)" d) want (P.phi_bound d))
    [ (2, 0); (3, 1); (4, 2); (5, 3); (6, 1); (7, 5); (8, 6); (9, 7); (10, 3);
      (12, 3); (15, 4); (30, 4); (36, 9) ]

let test_table_3_2 () =
  (* MAX(ψ−1, φ): spot checks plus the thesis's remark that d = 28 is
     the sole value ≤ 35 where ψ(d)−1 beats φ(d). *)
  check_int "d=28" 8 (P.max_tolerance 28);
  check_bool "28 is psi-dominated" true (P.psi 28 - 1 > P.phi_bound 28);
  for d = 2 to 35 do
    if d <> 28 then
      check_int
        (Printf.sprintf "phi dominates at d=%d" d)
        (P.phi_bound d) (P.max_tolerance d)
  done;
  (* Prime powers attain the absolute optimum d − 2. *)
  List.iter
    (fun d -> check_int (Printf.sprintf "optimal at prime power %d" d) (d - 2) (P.max_tolerance d))
    [ 3; 4; 5; 7; 8; 9; 11; 13; 16; 25; 27; 32 ]

let test_phi_full_table () =
  (* φ(d) = Σpᵢᵉⁱ − 2k for every d ≤ 32, worked by hand from the
     factorization (the Table 3.2 column). *)
  List.iter
    (fun (d, want) ->
      check_int (Printf.sprintf "phi(%d)" d) want (P.phi_bound d);
      let b = P.bounds d in
      check_int "bounds.phi" want b.P.phi;
      check_int "bounds.psi" (P.psi d) b.P.psi;
      check_int "bounds.max_" (P.max_tolerance d) b.P.max_)
    [ (2, 0); (3, 1); (4, 2); (5, 3); (6, 1); (7, 5); (8, 6); (9, 7); (10, 3);
      (11, 9); (12, 3); (13, 11); (14, 5); (15, 4); (16, 14); (17, 15); (18, 7);
      (19, 17); (20, 5); (21, 6); (22, 9); (23, 21); (24, 7); (25, 23); (26, 11);
      (27, 25); (28, 7); (29, 27); (30, 4); (31, 29); (32, 30) ]

let test_max_full_table () =
  (* MAX(ψ(d)−1, φ(d)) for every d ≤ 32: equals φ everywhere except
     d = 28 where ψ − 1 = 8 wins (the thesis's remark). *)
  List.iter
    (fun (d, want) -> check_int (Printf.sprintf "MAX(%d)" d) want (P.max_tolerance d))
    [ (2, 0); (3, 1); (4, 2); (5, 3); (6, 1); (7, 5); (8, 6); (9, 7); (10, 3);
      (11, 9); (12, 3); (13, 11); (14, 5); (15, 4); (16, 14); (17, 15); (18, 7);
      (19, 17); (20, 5); (21, 6); (22, 9); (23, 21); (24, 7); (25, 23); (26, 11);
      (27, 25); (28, 8); (29, 27); (30, 4); (31, 29); (32, 30) ]

let test_corollary_3_1 () =
  for d = 2 to 40 do
    check_bool
      (Printf.sprintf "psi(%d) >= corollary bound" d)
      true
      (P.psi d >= P.psi_lower_bound_corollary d)
  done

(* ------------------------------------------------------------------ *)
(* Edge faults: Proposition 3.3 / 3.4 *)

let random_nonloop_edges rng p f =
  let rec grow acc =
    if List.length acc >= f then acc
    else begin
      let u = Util.Rng.int rng p.W.size in
      let a = Util.Rng.int rng p.W.d in
      let v = W.snoc p (W.suffix p u) a in
      if u <> v && not (List.mem (u, v) acc) then grow ((u, v) :: acc) else grow acc
    end
  in
  grow []

let test_prop_3_3_random () =
  let rng = Util.Rng.create 5 in
  List.iter
    (fun (d, n) ->
      let p = W.params ~d ~n in
      let g = Debruijn.Graph.b p in
      let phi = P.phi_bound d in
      for _ = 1 to 30 do
        let f = 1 + Util.Rng.int rng (max 1 phi) in
        let f = min f phi in
        if f >= 1 then begin
          let faults = random_nonloop_edges rng p f in
          match EF.hc_avoiding ~d ~n ~faults with
          | None -> Alcotest.fail (Printf.sprintf "no HC found d=%d n=%d f=%d" d n f)
          | Some hc ->
              let cyc = S.cycle_of_sequence p hc in
              check_bool "hamiltonian" true (C.is_hamiltonian g cyc);
              check_bool "avoids faults" true
                (C.avoids_edges cyc (fun e -> List.mem e faults))
        end
      done)
    [ (3, 3); (4, 2); (4, 3); (5, 2); (6, 2); (8, 2); (9, 2); (10, 2); (12, 2); (15, 2) ]

let test_prop_3_3_worst_case_pack () =
  (* d−2 of the d−1 non-loop edges into 0ⁿ fail: the construction must
     still find an HC (optimal for prime powers). *)
  List.iter
    (fun (d, n) ->
      let p = W.params ~d ~n in
      let g = Debruijn.Graph.b p in
      let faults = EF.worst_case_edge_faults ~d ~n (d - 2) in
      match EF.hc_avoiding ~d ~n ~faults with
      | None -> Alcotest.fail "should tolerate d-2 targeted faults"
      | Some hc ->
          let cyc = S.cycle_of_sequence p hc in
          check_bool "valid" true
            (C.is_hamiltonian g cyc && C.avoids_edges cyc (fun e -> List.mem e faults)))
    [ (3, 3); (4, 2); (5, 2); (7, 2); (8, 2); (9, 2) ]

let test_d_minus_1_faults_impossible () =
  (* Removing all d−1 non-loop edges into 0ⁿ leaves only the loop, so no
     HC can exist; the construction must return None. *)
  List.iter
    (fun (d, n) ->
      let faults = EF.worst_case_edge_faults ~d ~n (d - 1) in
      check_bool "no HC possible" true (EF.hc_avoiding ~d ~n ~faults = None);
      check_bool "disjoint route also fails" true
        (EF.hc_avoiding_via_disjoint ~d ~n ~faults = None))
    [ (3, 2); (4, 2); (5, 2) ]

let test_prop_3_4_psi_route () =
  (* d = 28 would be the ψ showcase but is too big to enumerate here;
     use d = 4 (ψ−1 = 2 = φ) and check the disjoint-HC route tolerates
     ψ−1 arbitrary faults. *)
  let rng = Util.Rng.create 17 in
  List.iter
    (fun (d, n) ->
      let p = W.params ~d ~n in
      let g = Debruijn.Graph.b p in
      let f = P.psi d - 1 in
      if f >= 1 then
        for _ = 1 to 20 do
          let faults = random_nonloop_edges rng p f in
          match EF.best_hc_avoiding ~d ~n ~faults with
          | None -> Alcotest.fail "psi route failed"
          | Some hc ->
              let cyc = S.cycle_of_sequence p hc in
              check_bool "valid" true
                (C.is_hamiltonian g cyc && C.avoids_edges cyc (fun e -> List.mem e faults))
        done)
    [ (4, 2); (5, 2); (8, 2); (9, 2) ]

let test_via_node_masking () =
  (* The Chapter 3 strawman: masking endpoints always yields a valid
     (non-Hamiltonian) ring, strictly shorter than the Prop 3.3 HC. *)
  let d = 5 and n = 3 in
  let p = W.params ~d ~n in
  let g = Debruijn.Graph.b p in
  let rng = Util.Rng.create 41 in
  for _ = 1 to 10 do
    let faults = random_nonloop_edges rng p 3 in
    (match EF.via_node_masking ~d ~n ~faults with
    | None -> Alcotest.fail "masking should leave survivors"
    | Some ring ->
        check_bool "valid cycle" true (C.is_cycle g ring);
        check_bool "avoids fault endpoints" true
          (C.avoids_nodes ring (fun v ->
               List.exists (fun (a, b) -> v = a || v = b) faults));
        check_bool "strictly shorter than Hamiltonian" true
          (Array.length ring < p.W.size));
    match EF.hc_avoiding ~d ~n ~faults with
    | Some hc -> check_int "construction keeps everyone" p.W.size (Array.length hc)
    | None -> Alcotest.fail "construction should succeed at f = 3 <= phi(5)"
  done

let test_fault_validation () =
  Alcotest.check_raises "non-edge rejected"
    (Invalid_argument "Edge_fault: fault is not a De Bruijn edge") (fun () ->
      ignore (EF.hc_avoiding ~d:3 ~n:2 ~faults:[ (0, 8) ]))

(* ------------------------------------------------------------------ *)
(* Streams: the O(n)-memory engine *)

let test_edge_codes () =
  let p = W.params ~d:3 ~n:3 in
  for c = 0 to (p.W.size * p.W.d) - 1 do
    let u, v = W.edge_of_code p c in
    check_int "roundtrip" c (W.edge_code p u v)
  done;
  Alcotest.check_raises "non-edge rejected"
    (Invalid_argument "Word.edge_code: not a De Bruijn edge") (fun () ->
      ignore (W.edge_code p 0 (p.W.size - 1)))

let test_stream_matches_materialized () =
  List.iter
    (fun (d, n) ->
      let t = SC.make ~d ~n in
      let p = t.SC.p in
      List.iter
        (fun s ->
          Alcotest.(check (array int)) "s+C node order"
            (S.nodes_of_sequence p (SC.shifted t s))
            (Str.to_nodes (Str.of_shift t s));
          List.iter
            (fun k ->
              if k <> s then begin
                let st = Str.hamiltonize t ~s ~k in
                Alcotest.(check (array int)) "H_s digits" (SC.hamiltonize t ~s ~k)
                  (Str.to_sequence st);
                check_bool "stream is Hamiltonian (O(1)-memory walk)" true
                  (Str.is_hamiltonian st);
                check_bool "de Bruijn walk" true (Str.is_de_bruijn_walk st)
              end)
            (List.init d Fun.id))
        (List.init d Fun.id))
    [ (2, 4); (3, 2); (3, 3); (5, 2); (8, 2); (9, 2) ]

let test_disjoint_streams_match_and_disjoint () =
  List.iter
    (fun (d, n) ->
      let cycles = Co.disjoint_hamiltonian_cycles ~d ~n in
      let streams = Co.disjoint_hamiltonian_streams ~d ~n in
      check_int "count = psi" (P.psi d) (List.length streams);
      List.iter2
        (fun c st -> Alcotest.(check (array int)) "same digits" c (Str.to_sequence st))
        cycles streams;
      (* Pairwise disjointness established by walk + successor probe,
         never materializing an edge set. *)
      let rec pairs = function
        | [] -> ()
        | a :: rest ->
            List.iter
              (fun b -> check_bool "edge disjoint" true (Str.edge_disjoint a b))
              rest;
            pairs rest
      in
      pairs streams)
    [ (2, 6); (4, 2); (6, 2); (9, 2); (12, 2) ]

let test_disjoint_streams_upto () =
  (* Every prefix size k in [1, ψ(d)] yields exactly k pairwise
     edge-disjoint Hamiltonian streams; k outside that range fails
     cleanly. *)
  List.iter
    (fun (d, n) ->
      let psi = P.psi d in
      for k = 1 to psi do
        let sts = Co.disjoint_streams_upto ~d ~n ~k in
        check_int "count = k" k (List.length sts);
        List.iter
          (fun st -> check_bool "hamiltonian" true (Str.is_hamiltonian st))
          sts;
        let rec pairs = function
          | [] -> ()
          | a :: rest ->
              List.iter
                (fun b -> check_bool "edge disjoint" true (Str.edge_disjoint a b))
                rest;
              pairs rest
        in
        pairs sts
      done;
      Alcotest.check_raises "k = 0 rejected"
        (Invalid_argument
           (Printf.sprintf
              "Compose.disjoint_streams_upto: k = 0 outside [1, psi(%d) = %d]" d
              psi)) (fun () -> ignore (Co.disjoint_streams_upto ~d ~n ~k:0));
      Alcotest.check_raises "k = psi + 1 rejected"
        (Invalid_argument
           (Printf.sprintf
              "Compose.disjoint_streams_upto: k = %d outside [1, psi(%d) = %d]"
              (psi + 1) d psi)) (fun () ->
          ignore (Co.disjoint_streams_upto ~d ~n ~k:(psi + 1))))
    [ (2, 5); (4, 2); (4, 3); (9, 2) ]

let test_surviving_disjoint_streams () =
  (* Faulting j distinct rings' edges kills exactly those j rings: the
     survivors avoid the fault set and keep their pairwise
     disjointness. *)
  let d = 4 and n = 3 in
  let psi = P.psi d in
  let all = Co.disjoint_hamiltonian_streams ~d ~n in
  check_int "no faults: all survive" psi
    (List.length (EF.surviving_disjoint_streams ~d ~n ~faults:[]));
  let edge_of st =
    let u = st.Str.start in
    (u, st.Str.succ u)
  in
  List.iteri
    (fun j _ ->
      let faults = List.map edge_of (List.filteri (fun i _ -> i <= j) all) in
      let survivors = EF.surviving_disjoint_streams ~d ~n ~faults in
      check_int "one ring killed per faulted ring"
        (psi - j - 1)
        (List.length survivors);
      List.iter
        (fun st ->
          check_bool "survivor avoids all faults" true
            (List.for_all (fun (u, v) -> not (Str.contains_edge st u v)) faults))
        survivors)
    all

let test_large_fault_set () =
  (* Fault every edge of the shifted cycle 1 + C of B(4,6): 4095 faults,
     vastly beyond φ(4) = 2, yet all owned by s = 1 — the construction
     must route around them via another shift.  With the old O(f) list
     scans this is quadratic; with the bitset probe it is instant. *)
  let d = 4 and n = 6 in
  let t = SC.make ~d ~n in
  let p = t.SC.p in
  let faults = C.edges_of_cycle (S.cycle_of_sequence p (SC.shifted t 1)) in
  check_int "4^6 - 1 faults" (p.W.size - 1) (List.length faults);
  (match EF.hc_avoiding_stream ~d ~n ~faults with
  | None -> Alcotest.fail "should survive a fully-faulted shifted cycle"
  | Some st ->
      check_bool "hamiltonian" true (Str.is_hamiltonian st);
      let fs = EF.Faults.make p faults in
      check_bool "avoids all 4095 faults" true (Str.avoids st (EF.Faults.mem fs)));
  (* The probe structure agrees with the naive list scan. *)
  let fs = EF.Faults.make p faults in
  check_int "count" (p.W.size - 1) (EF.Faults.count fs);
  let rng = Util.Rng.create 7 in
  for _ = 1 to 1000 do
    let u, v = W.edge_of_code p (Util.Rng.int rng (p.W.size * p.W.d)) in
    check_bool "probe = list scan" (List.mem (u, v) faults) (EF.Faults.mem fs u v)
  done

let test_faults_hashtable_regime () =
  (* B(2,28): 2^29 edge codes exceed the bitset cap, so Faults falls
     back to a hashtable — membership must be unaffected. *)
  let p = W.params ~d:2 ~n:28 in
  let faults = List.map (W.edge_of_code p) [ 0; 12345; 400_000_000 ] in
  let fs = EF.Faults.make p faults in
  List.iter (fun (u, v) -> check_bool "present" true (EF.Faults.mem fs u v)) faults;
  let u, v = W.edge_of_code p 999_999 in
  check_bool "absent" false (EF.Faults.mem fs u v)

let test_mdb_streams () =
  let t = M.build ~d:5 ~n:2 in
  List.iter2
    (fun c st ->
      Alcotest.(check (array int)) "nodes" c (Str.to_nodes st);
      check_bool "cycle" true (Str.is_cycle st))
    t.M.cycles (M.stream_cycles t)

(* ------------------------------------------------------------------ *)
(* Campaign *)

let test_campaign_guarantee () =
  (* Below MAX(ψ−1, φ) every trial must produce a full Hamiltonian
     ring (Propositions 3.3/3.4). *)
  List.iter
    (fun d ->
      let mt = P.max_tolerance d in
      let pts = Ca.run ~trials:8 ~fmax:mt ~d ~n:2 () in
      check_int "points" (mt + 1) (List.length pts);
      let size = (W.params ~d ~n:2).W.size in
      List.iter
        (fun (pt : Ca.point) ->
          check_int (Printf.sprintf "d=%d f=%d all succeed" d pt.Ca.f) pt.Ca.trials
            pt.Ca.successes;
          check_int "success split" pt.Ca.successes
            (pt.Ca.via_construction + pt.Ca.via_disjoint);
          check_bool "full rings" true
            (pt.Ca.mean_ring_length = float_of_int size))
        pts)
    [ 3; 4; 5; 6; 8; 9; 10 ]

let test_campaign_deterministic_across_domains () =
  let strip (pt : Ca.point) =
    ( pt.Ca.f, pt.Ca.successes, pt.Ca.via_construction, pt.Ca.via_disjoint,
      pt.Ca.masked_fallbacks, pt.Ca.mean_ring_length )
  in
  let a = Ca.run ~trials:6 ~fmax:4 ~d:6 ~n:2 () in
  let b = Ca.run ~domains:3 ~trials:6 ~fmax:4 ~d:6 ~n:2 () in
  check_bool "domains don't change statistics" true
    (List.map strip a = List.map strip b);
  (* more domains than trials: one worker per trial *)
  let c = Ca.run ~domains:8 ~trials:6 ~fmax:4 ~d:6 ~n:2 () in
  check_bool "domains:8 don't change statistics" true
    (List.map strip a = List.map strip c)

(* The campaigns hold the library's only working [?domains]; like
   Ffc.Campaign's, a count below 1 is rejected rather than run
   sequentially. *)
let test_campaign_rejects_domains () =
  List.iter
    (fun domains ->
      Alcotest.check_raises
        (Printf.sprintf "domains:%d" domains)
        (Invalid_argument "Campaign.run: domains < 1")
        (fun () -> ignore (Ca.run ~domains ~trials:2 ~fmax:1 ~d:3 ~n:2 ())))
    [ 0; -1 ]

(* ------------------------------------------------------------------ *)
(* MB(d,n): Hamiltonian decompositions *)

let test_mdb_sizes () =
  List.iter
    (fun (d, n) ->
      let t = M.build ~d ~n in
      check_int "d cycles" d (List.length t.M.cycles);
      List.iter
        (fun c -> check_int "cycle covers all nodes" (t.M.p.W.size) (Array.length c))
        t.M.cycles;
      check_bool (Printf.sprintf "verify MB(%d,%d)" d n) true (M.verify t))
    [ (2, 3); (2, 4); (2, 5); (3, 2); (3, 3); (3, 4); (5, 2); (5, 3); (7, 2); (9, 2) ]

let test_mdb_example_3_6 () =
  (* d = 2, n = 3: the thesis's explicit decomposition exists; check the
     structural facts it states: H₀ = C + 000 inserted between 100 and
     001; H₁ passes 010 → 000 → 111 → 101 style reroutes; both HCs. *)
  let t = M.build ~d:2 ~n:3 in
  let p = t.M.p in
  let h0 = List.nth t.M.cycles 0 in
  let zero = W.of_string p "000" in
  let i = ref (-1) in
  Array.iteri (fun j v -> if v = zero then i := j) h0;
  let len = Array.length h0 in
  check_int "000 preceded by 100" (W.of_string p "100") h0.((!i + len - 1) mod len);
  check_int "000 followed by 001" (W.of_string p "001") h0.((!i + 1) mod len);
  check_int "3 new edges overall" 3 (M.new_edge_count t)

let test_mdb_new_edge_counts () =
  (* Odd prime powers: 2 rerouted edges per cycle, all new → 2d; binary:
     exactly 3 new edges (Example 3.6). *)
  List.iter
    (fun (d, n, want) -> check_int (Printf.sprintf "MB(%d,%d)" d n) want (M.new_edge_count (M.build ~d ~n)))
    [ (2, 4, 3); (3, 3, 6); (5, 2, 10); (7, 2, 14); (9, 2, 18) ]

let test_mdb_errors () =
  Alcotest.check_raises "d=2 n=2 impossible"
    (Invalid_argument "Mdb.build: the binary construction requires n >= 3") (fun () ->
      ignore (M.build ~d:2 ~n:2));
  Alcotest.check_raises "composite d rejected"
    (Invalid_argument "Mdb.build: d must be 2 or an odd prime power") (fun () ->
      ignore (M.build ~d:6 ~n:2));
  Alcotest.check_raises "even prime power rejected"
    (Invalid_argument "Mdb.build: d must be 2 or an odd prime power") (fun () ->
      ignore (M.build ~d:4 ~n:2))

(* ------------------------------------------------------------------ *)
(* properties *)

let qsuite =
  let open QCheck in
  let pp_gen = oneofl [ (3, 2); (3, 3); (4, 2); (5, 2); (7, 2); (8, 2); (9, 2) ] in
  [
    Test.make ~name:"H_s is Hamiltonian for random (s,k)" ~count:100
      (pair pp_gen (pair (int_range 0 100) (int_range 0 100)))
      (fun ((d, n), (s0, k0)) ->
        let t = SC.make ~d ~n in
        let p = t.SC.p in
        let s = s0 mod d in
        let k = k0 mod d in
        QCheck.assume (s <> k);
        S.is_de_bruijn_sequence p (SC.hamiltonize t ~s ~k));
    Test.make ~name:"Lemma 3.4 conflict predicate is symmetric" ~count:200
      (triple (int_range 0 100) (int_range 0 100) (int_range 0 100))
      (fun (x, y, seed) ->
        let d = 9 in
        let t = SC.make ~d ~n:2 in
        let field = t.SC.lfsr.L.field in
        let x = x mod d and y = y mod d in
        (* a random fixed-point-free f from the seed *)
        let f v = (v + 1 + (seed mod (d - 1))) mod d in
        QCheck.assume (List.for_all (fun v -> f v <> v) (G.elements field));
        SC.hs_conflicts t ~f x y = SC.hs_conflicts t ~f y x);
    Test.make ~name:"streaming engine = frozen Reference" ~count:60
      (pair
         (oneofl
            [ (2, 4); (3, 3); (4, 2); (5, 2); (6, 2); (8, 2); (9, 2); (10, 2); (12, 2) ])
         (int_range 0 1_000_000))
      (fun ((d, n), seed) ->
        let p = W.params ~d ~n in
        let rng = Util.Rng.create seed in
        let bound = p.W.size * p.W.d in
        let f = Util.Rng.int rng (min bound (P.max_tolerance d + 3)) in
        let faults =
          List.map (W.edge_of_code p) (Util.Rng.sample_distinct rng ~k:f ~bound)
        in
        EF.hc_avoiding ~d ~n ~faults = R.hc_avoiding ~d ~n ~faults
        && EF.hc_avoiding_via_disjoint ~d ~n ~faults
           = R.hc_avoiding_via_disjoint ~d ~n ~faults
        && EF.best_hc_avoiding ~d ~n ~faults = R.best_hc_avoiding ~d ~n ~faults);
    Test.make ~name:"streamed H_s pairwise disjointness = materialized" ~count:40
      (pair (oneofl [ (3, 3); (4, 2); (5, 2); (7, 2); (9, 2) ])
         (pair (int_range 0 100) (int_range 0 100)))
      (fun ((d, n), (i, j)) ->
        let streams = St.disjoint_hamiltonian_streams ~d ~n in
        let cycles = St.disjoint_hamiltonian_cycles ~d ~n in
        let len = List.length streams in
        let i = i mod len and j = j mod len in
        QCheck.assume (i <> j);
        let p = W.params ~d ~n in
        Str.edge_disjoint (List.nth streams i) (List.nth streams j)
        = S.edge_disjoint p (List.nth cycles i) (List.nth cycles j));
    Test.make ~name:"product of HCs is an HC" ~count:40
      (pair (int_range 0 2) (int_range 0 1))
      (fun (i, j) ->
        let has = St.disjoint_hamiltonian_cycles ~d:4 ~n:2 in
        let hbs = St.disjoint_hamiltonian_cycles ~d:3 ~n:2 in
        let a = List.nth has (i mod List.length has) in
        let b = List.nth hbs (j mod List.length hbs) in
        S.is_de_bruijn_sequence (W.params ~d:12 ~n:2) (Co.product ~s:4 ~t:3 a b));
  ]

let () =
  Alcotest.run "dhc"
    [
      ( "lfsr",
        [
          Alcotest.test_case "Example 3.1 sequence" `Quick test_example_3_1_sequence;
          Alcotest.test_case "rejects non-primitive" `Quick test_lfsr_rejects_non_primitive;
          Alcotest.test_case "maximal cycle properties" `Quick test_maximal_cycle_properties;
          Alcotest.test_case "bad init" `Quick test_lfsr_bad_init;
        ] );
      ( "shift-cycles",
        [
          Alcotest.test_case "Lemmas 3.1/3.2 (cycles, recurrence)" `Quick test_shifted_are_cycles;
          Alcotest.test_case "Lemma 3.3 (edge-disjoint partition)" `Quick
            test_shifted_edge_disjoint_partition;
          Alcotest.test_case "owner of edge" `Quick test_owner_of_edge;
          Alcotest.test_case "Eq. 3.3" `Quick test_alpha_equations;
          Alcotest.test_case "hamiltonize" `Quick test_hamiltonize;
          Alcotest.test_case "new edge locations" `Quick test_hamiltonize_new_edges_location;
          Alcotest.test_case "k = s rejected" `Quick test_hamiltonize_k_eq_s;
        ] );
      ( "strategies",
        [
          Alcotest.test_case "Example 3.4 (B(5,2))" `Quick test_example_3_4;
          Alcotest.test_case "strategy selection" `Quick test_strategy_choices;
          Alcotest.test_case "f is fixed-point free" `Quick
            test_replacement_function_fixed_point_free;
          Alcotest.test_case "disjoint HCs (prime powers)" `Quick test_disjoint_hcs_prime_powers;
        ] );
      ( "compose",
        [
          Alcotest.test_case "Example 3.5" `Quick test_example_3_5;
          Alcotest.test_case "errors" `Quick test_product_errors;
          Alcotest.test_case "disjoint HCs (composite)" `Quick test_disjoint_hcs_composite;
        ] );
      ( "psi",
        [
          Alcotest.test_case "Table 3.1" `Quick test_table_3_1;
          Alcotest.test_case "phi bound" `Quick test_phi_bound;
          Alcotest.test_case "Table 3.2 / d=28" `Quick test_table_3_2;
          Alcotest.test_case "phi full table d<=32" `Quick test_phi_full_table;
          Alcotest.test_case "MAX full table d<=32" `Quick test_max_full_table;
          Alcotest.test_case "Corollary 3.1" `Quick test_corollary_3_1;
        ] );
      ( "edge-fault",
        [
          Alcotest.test_case "Prop 3.3 random" `Quick test_prop_3_3_random;
          Alcotest.test_case "Prop 3.3 worst-case pack" `Quick test_prop_3_3_worst_case_pack;
          Alcotest.test_case "d-1 faults impossible" `Quick test_d_minus_1_faults_impossible;
          Alcotest.test_case "Prop 3.4 psi route" `Quick test_prop_3_4_psi_route;
          Alcotest.test_case "node masking strawman" `Quick test_via_node_masking;
          Alcotest.test_case "validation" `Quick test_fault_validation;
        ] );
      ( "stream",
        [
          Alcotest.test_case "edge codes roundtrip" `Quick test_edge_codes;
          Alcotest.test_case "streams match materialized" `Quick
            test_stream_matches_materialized;
          Alcotest.test_case "disjoint families match + walk-disjoint" `Quick
            test_disjoint_streams_match_and_disjoint;
          Alcotest.test_case "disjoint prefix families (upto k)" `Quick
            test_disjoint_streams_upto;
          Alcotest.test_case "surviving disjoint streams" `Quick
            test_surviving_disjoint_streams;
          Alcotest.test_case "4095-fault set via bitset probe" `Quick
            test_large_fault_set;
          Alcotest.test_case "hashtable regime" `Quick test_faults_hashtable_regime;
          Alcotest.test_case "MB cycles as streams" `Quick test_mdb_streams;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "guaranteed regime" `Quick test_campaign_guarantee;
          Alcotest.test_case "domains-invariant statistics" `Quick
            test_campaign_deterministic_across_domains;
          Alcotest.test_case "domains < 1 rejected" `Quick
            test_campaign_rejects_domains;
        ] );
      ( "mdb",
        [
          Alcotest.test_case "decompositions verify" `Quick test_mdb_sizes;
          Alcotest.test_case "Example 3.6 structure" `Quick test_mdb_example_3_6;
          Alcotest.test_case "new edge counts" `Quick test_mdb_new_edge_counts;
          Alcotest.test_case "errors" `Quick test_mdb_errors;
        ] );
      ("properties", List.map (fun t -> QCheck_alcotest.to_alcotest ~long:false t) qsuite);
    ]
