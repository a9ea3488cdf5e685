(* Ablations of the design choices called out in DESIGN.md. *)

module W = Debruijn.Word
module B = Ffc.Bstar
module A = Ffc.Adjacency

let hr = String.make 78 '-'

(* Ablation (a): the FFC parent rule.  The thesis picks the MINIMAL
   predecessor at the previous BFS level; any rule that is a function of
   the predecessor set alone keeps the height-one property of T_w,
   because siblings wα and wβ share their whole predecessor set.  A
   node-dependent rule (here: the (v mod k)-th predecessor) breaks the
   proof — this ablation counts how often it also breaks the property. *)
let parent_rule_ablation () =
  print_endline hr;
  print_endline "ABLATION (a) - FFC parent tie-break rule vs the height-one property of T_w";
  print_endline hr;
  let count_violations p faults rule =
    match B.compute p ~faults with
    | None -> 0
    | Some b ->
        let in_bstar v = b.B.in_bstar.{v} <> 0 in
        let dist =
          Graphlib.Itopo.bfs_dist ~n:p.W.size ~succs:(W.iter_succs p) ~keep:in_bstar
            b.B.root
        in
        let parent_of v =
          let preds =
            List.filter (fun u -> in_bstar u && dist.(u) = dist.(v) - 1) (W.predecessors p v)
          in
          rule v (List.sort Int.compare preds)
        in
        let adj = A.build b in
        (* chosen node per necklace and its parent label, as in Step 1.2 *)
        let label_parent = Hashtbl.create 32 in
        let violations = ref 0 in
        Array.iteri
          (fun i rep ->
            if i <> adj.A.idx_of_node.{b.B.root} then begin
              let members = List.sort Int.compare (Debruijn.Necklace.nodes p rep) in
              let y =
                List.fold_left
                  (fun best v ->
                    match best with
                    | None -> Some v
                    | Some bv ->
                        if dist.(v) < dist.(bv) || (dist.(v) = dist.(bv) && v < bv) then Some v
                        else best)
                  None members
              in
              match y with
              | Some y when dist.(y) > 0 ->
                  let par = parent_of y in
                  let w = W.prefix p y in
                  let par_neck = adj.A.idx_of_node.{par} in
                  (match Hashtbl.find_opt label_parent w with
                  | None -> Hashtbl.add label_parent w par_neck
                  | Some q -> if q <> par_neck then incr violations)
              | _ -> ()
            end)
          adj.A.reps;
        !violations
  in
  let minimal _v = function [] -> assert false | p :: _ -> p in
  let skewed v preds = List.nth preds (v mod List.length preds) in
  let rng = Util.Rng.create 808 in
  Printf.printf "%10s %8s | %18s %18s\n" "graph" "trials" "minimal-rule viol." "skewed-rule viol.";
  List.iter
    (fun (d, n) ->
      let p = W.params ~d ~n in
      let trials = 60 in
      let v_min = ref 0 and v_skew = ref 0 in
      for _ = 1 to trials do
        let f = 1 + Util.Rng.int rng (d + 1) in
        let faults = Util.Rng.sample_distinct rng ~k:f ~bound:p.W.size in
        v_min := !v_min + count_violations p faults minimal;
        v_skew := !v_skew + count_violations p faults skewed
      done;
      Printf.printf "%10s %8d | %18d %18d\n"
        (Printf.sprintf "B(%d,%d)" d n)
        trials !v_min !v_skew)
    [ (3, 4); (4, 3); (2, 7); (5, 2) ]

(* Ablation (b): distributed protocol round budget O(K + n). *)
let distributed_rounds_ablation () =
  print_endline hr;
  print_endline
    "ABLATION (b) - orchestrated vs self-timed distributed FFC rounds (O(K+n) vs 5n+4)";
  print_endline hr;
  let rng = Util.Rng.create 811 in
  Printf.printf "%10s %4s | %6s %6s %6s %5s %5s | %6s %11s %6s\n" "graph" "f" "probe"
    "bcast" "choose" "exch" "memb" "total" "ecc + 3n + 4" "ports";
  List.iter
    (fun (d, n, f) ->
      let p = W.params ~d ~n in
      let faults = Util.Rng.sample_distinct rng ~k:f ~bound:p.W.size in
      match B.compute p ~faults with
      | None -> ()
      | Some b ->
          let r = Ffc.Distributed.run b in
          let s = r.Ffc.Distributed.stats in
          let ecc = B.eccentricity_of_root b in
          Printf.printf "%10s %4d | %6d %6d %6d %5d %5d | %6d %11d %6d\n"
            (Printf.sprintf "B(%d,%d)" d n)
            f s.Ffc.Distributed.probe_rounds s.Ffc.Distributed.broadcast_rounds
            s.Ffc.Distributed.choose_rounds s.Ffc.Distributed.exchange_rounds
            s.Ffc.Distributed.membership_rounds s.Ffc.Distributed.total_rounds
            (ecc + (3 * n) + 4)
            s.Ffc.Distributed.port_load;
          (match Ffc.Selftimed.run b with
          | st ->
              Printf.printf "%10s %4s | self-timed single program: %d rounds (schedule %d), agree=%b\n"
                "" "" st.Ffc.Selftimed.total_rounds
                (Ffc.Selftimed.schedule_length ~n)
                (st.Ffc.Selftimed.successor = r.Ffc.Distributed.successor)
          | exception _ ->
              Printf.printf "%10s %4s | self-timed: schedule too short for this f\n" "" ""))
    [ (2, 8, 2); (2, 10, 4); (3, 5, 1); (4, 5, 2); (4, 5, 10); (5, 4, 3) ]

(* Ablation (c): Strategy 2 vs Strategy 3 where both conditions hold. *)
let strategy_ablation () =
  print_endline hr;
  print_endline "ABLATION (c) - Strategy 2 vs Strategy 3 for odd primes (disjoint HC counts)";
  print_endline hr;
  Printf.printf "%4s %10s %10s %12s %10s\n" "p" "(p-1)/2" "cond (b)" "chosen" "|L|";
  List.iter
    (fun p ->
      let choice = Dhc.Strategies.choose ~p in
      let name =
        match choice with
        | Dhc.Strategies.S1 -> "S1"
        | Dhc.Strategies.S2 _ -> "S2"
        | Dhc.Strategies.S3 _ -> "S3"
      in
      let field = Galois.Gf.create p in
      let count = List.length (Dhc.Strategies.selected_shifts field choice) in
      Printf.printf "%4d %10s %10b %12s %10d\n" p
        (if (p - 1) / 2 mod 2 = 0 then "even" else "odd")
        (Dhc.Strategies.condition_b_holds ~p)
        name count)
    [ 3; 5; 7; 11; 13; 17; 19; 23; 29; 31; 37 ]

(* Ablation (d): the two edge-fault routes beyond their guarantees. *)
let edge_route_ablation () =
  print_endline hr;
  print_endline "ABLATION (d) - phi-construction vs psi-route at and beyond the guarantee";
  print_endline hr;
  let rng = Util.Rng.create 812 in
  Printf.printf "%6s %4s %8s | %14s %14s\n" "d" "n" "faults" "phi-route ok" "psi-route ok";
  List.iter
    (fun (d, n) ->
      let p = W.params ~d ~n in
      let phi = Dhc.Psi.phi_bound d in
      List.iter
        (fun extra ->
          let f = phi + extra in
          if f >= 1 then begin
            let trials = 30 in
            let ok_phi = ref 0 and ok_psi = ref 0 in
            for _ = 1 to trials do
              let rec pick acc =
                if List.length acc >= f then acc
                else begin
                  let u = Util.Rng.int rng p.W.size in
                  let a = Util.Rng.int rng d in
                  let v = W.snoc p (W.suffix p u) a in
                  if u <> v && not (List.mem (u, v) acc) then pick ((u, v) :: acc)
                  else pick acc
                end
              in
              let faults = pick [] in
              let check = function
                | Some hc ->
                    let c = Debruijn.Sequence.cycle_of_sequence p hc in
                    Graphlib.Cycle.is_hamiltonian (Debruijn.Graph.b p) c
                    && Graphlib.Cycle.avoids_edges c (fun e -> List.mem e faults)
                | None -> false
              in
              if check (Dhc.Edge_fault.hc_avoiding ~d ~n ~faults) then incr ok_phi;
              if check (Dhc.Edge_fault.hc_avoiding_via_disjoint ~d ~n ~faults) then
                incr ok_psi
            done;
            Printf.printf "%6d %4d %8d | %11d/%2d %11d/%2d\n" d n f !ok_phi trials !ok_psi
              trials
          end)
        [ 0; 2; 4 ])
    [ (5, 2); (8, 2); (9, 2) ]

(* Ablation (e): Chapter 3's opening strawman — masking the endpoints of
   faulty links as faulty nodes and reusing Chapter 2 — versus the real
   edge-fault construction.  The strawman needlessly drops live
   processors (up to ~2n per fault); the construction keeps them all. *)
let node_masking_ablation () =
  print_endline hr;
  print_endline
    "ABLATION (e) - edge faults via node masking (Ch. 3 opening) vs the Prop 3.3 HC";
  print_endline hr;
  let rng = Util.Rng.create 813 in
  Printf.printf "%10s %4s %8s | %14s %14s %8s\n" "graph" "f" "trials" "mask ring(avg)"
    "Prop 3.3 ring" "d^n";
  List.iter
    (fun (d, n) ->
      let p = W.params ~d ~n in
      let f = max 1 (Dhc.Psi.phi_bound d) in
      let trials = 25 in
      let mask_total = ref 0 and hc_ok = ref 0 in
      for _ = 1 to trials do
        let rec pick acc =
          if List.length acc >= f then acc
          else begin
            let u = Util.Rng.int rng p.W.size in
            let a = Util.Rng.int rng d in
            let v = W.snoc p (W.suffix p u) a in
            if u <> v && not (List.mem (u, v) acc) then pick ((u, v) :: acc) else pick acc
          end
        in
        let faults = pick [] in
        (match Dhc.Edge_fault.via_node_masking ~d ~n ~faults with
        | Some ring -> mask_total := !mask_total + Array.length ring
        | None -> ());
        match Dhc.Edge_fault.best_hc_avoiding ~d ~n ~faults with
        | Some _ -> incr hc_ok
        | None -> ()
      done;
      Printf.printf "%10s %4d %8d | %14.1f %14s %8d\n"
        (Printf.sprintf "B(%d,%d)" d n)
        f trials
        (float_of_int !mask_total /. float_of_int trials)
        (Printf.sprintf "%d/%d Hamiltonian" !hc_ok trials)
        p.W.size)
    [ (4, 3); (5, 3); (8, 2); (9, 2) ]

let run () =
  parent_rule_ablation ();
  print_newline ();
  distributed_rounds_ablation ();
  print_newline ();
  strategy_ablation ();
  print_newline ();
  edge_route_ablation ();
  print_newline ();
  node_masking_ablation ();
  print_newline ()
