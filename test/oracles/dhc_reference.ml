(* The seed Chapter-3 edge-fault engine, frozen verbatim as an
   executable specification: association-list fault scans, materialized
   dⁿ-length cycles, List.mem per edge.  The streaming [Edge_fault]
   engine is pinned against it by the qcheck suite (identical outputs on
   small d, n) and measured against it by `bench/main.exe -- dhc`. *)

open Dhc

module N = Numtheory
module W = Debruijn.Word

type fault = int * int

let validate_faults p faults =
  List.iter
    (fun (u, v) ->
      if u < 0 || u >= p.W.size || v < 0 || v >= p.W.size then
        invalid_arg "Edge_fault: fault node out of range";
      if W.suffix p u <> W.prefix p v then
        invalid_arg "Edge_fault: fault is not a De Bruijn edge")
    faults

let rec hc_avoiding ~d ~n ~faults =
  let p = W.params ~d ~n in
  validate_faults p faults;
  match N.factorize d with
  | [] -> invalid_arg "Edge_fault.hc_avoiding: d < 2"
  | [ _ ] -> prime_power_case ~d ~n ~faults
  | (pr, e) :: _ ->
      let t = N.pow pr e in
      let s = d / t in
      let p_s = W.params ~d:s ~n and p_t = W.params ~d:t ~n in
      (* Project a node of B(st,n) onto its B(s,n) / B(t,n) parts via
         the digit map v = a·t + b. *)
      let project q f node =
        W.encode q (Array.map f (W.decode p node))
      in
      let a_of (u, v) = (project p_s (fun x -> x / t) u, project p_s (fun x -> x / t) v) in
      let b_of (u, v) = (project p_t (fun x -> x mod t) u, project p_t (fun x -> x mod t) v) in
      (* Route up to φ(s) faults to the A side, the rest to B. *)
      let cap = Psi.phi_bound s in
      let rec split i = function
        | [] -> ([], [])
        | f :: rest ->
            let xs, ys = split (i + 1) rest in
            if i < cap then (f :: xs, ys) else (xs, f :: ys)
      in
      let fa, fb = split 0 faults in
      Option.bind (hc_avoiding ~d:s ~n ~faults:(List.map a_of fa)) (fun a ->
          Option.map
            (fun b -> Compose.product ~s ~t a b)
            (hc_avoiding ~d:t ~n ~faults:(List.map b_of fb)))

and prime_power_case ~d ~n ~faults =
  let t = Shift_cycles.make ~d ~n in
  let p = t.Shift_cycles.p in
  let owners = List.map (Shift_cycles.owner_of_edge t) faults in
  let is_fault e = List.mem e faults in
  let s_candidates =
    List.filter (fun s -> not (List.mem s owners)) (List.init d Fun.id)
  in
  let sn s = W.constant p s in
  let try_s s =
    let exit_node alpha =
      (* α s^{n−1} *)
      let digits = Array.make n s in
      digits.(0) <- alpha;
      W.encode p digits
    in
    let entry_node alpha_hat =
      (* s^{n−1} α̂ *)
      let digits = Array.make n s in
      digits.(n - 1) <- alpha_hat;
      W.encode p digits
    in
    let try_k k =
      if k = s then None
      else begin
        let a_hat = Shift_cycles.alpha_hat t ~s ~k in
        let a = Shift_cycles.alpha_for t ~s ~alpha_hat:a_hat in
        let e1 = (exit_node a, sn s) and e2 = (sn s, entry_node a_hat) in
        if is_fault e1 || is_fault e2 then None
        else Some (Shift_cycles.hamiltonize t ~s ~k)
      end
    in
    List.find_map try_k (List.init d Fun.id)
  in
  List.find_map try_s s_candidates

let hc_avoiding_via_disjoint ~d ~n ~faults =
  let p = W.params ~d ~n in
  validate_faults p faults;
  let hcs = Compose.disjoint_hamiltonian_cycles ~d ~n in
  let avoids seq =
    let cyc = Debruijn.Sequence.cycle_of_sequence p seq in
    Graphlib.Cycle.avoids_edges cyc (fun e -> List.mem e faults)
  in
  List.find_opt avoids hcs

let best_hc_avoiding ~d ~n ~faults =
  match hc_avoiding ~d ~n ~faults with
  | Some hc -> Some hc
  | None -> hc_avoiding_via_disjoint ~d ~n ~faults
