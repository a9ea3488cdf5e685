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

module Faults = struct
  type repr = Bits of Graphlib.Bitset.t | Table of (int, unit) Hashtbl.t

  type t = { p : W.params; count : int; repr : repr }

  (* Past 2^27 edge codes the dense bitset would cost > 16 MB even for a
     handful of faults; switch to a hashtable there. *)
  let bitset_code_limit = 1 lsl 27

  let make p faults =
    validate_faults p faults;
    let codes = List.map (fun (u, v) -> W.edge_code p u v) faults in
    let repr =
      if p.W.size * p.W.d <= bitset_code_limit then begin
        let b = Graphlib.Bitset.create (p.W.size * p.W.d) in
        List.iter (Graphlib.Bitset.add b) codes;
        Bits b
      end
      else begin
        let h = Hashtbl.create ((2 * List.length codes) + 1) in
        List.iter (fun c -> Hashtbl.replace h c ()) codes;
        Table h
      end
    in
    { p; count = List.length faults; repr }

  let count t = t.count

  let mem_code t c =
    match t.repr with
    | Bits b -> Graphlib.Bitset.mem b c
    | Table h -> Hashtbl.mem h c

  (* (u, v) must be a De Bruijn edge; its code is u·d + vₙ. *)
  let mem t u v = mem_code t ((u * t.p.W.d) + (v mod t.p.W.d))
end

(* ------------------------------------------------------------------ *)
(* Proposition 3.3, streaming: prime-power leaves pick a fault-free
   s + C by owner lookup and probe the two insertion edges in O(1);
   composite d recurses over the factorization with the Rees product as
   a successor transformer.  The search order (s ascending over
   non-owners, k ascending) is exactly the seed engine's, so outputs are
   identical node-for-node. *)

let rec hc_avoiding_stream ~d ~n ~faults =
  let p = W.params ~d ~n in
  validate_faults p faults;
  match N.factorize d with
  | [] -> invalid_arg "Edge_fault.hc_avoiding: d < 2"
  | [ _ ] -> prime_power_stream ~d ~n ~faults
  | (pr, e) :: _ ->
      let t = N.pow pr e in
      let s = d / t in
      let p_s = W.params ~d:s ~n and p_t = W.params ~d:t ~n in
      (* Project a node of B(st,n) onto its B(s,n) / B(t,n) parts via
         the digit map v = a·t + b. *)
      let project q f node = W.encode q (Array.map f (W.decode p node)) in
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
      Option.bind (hc_avoiding_stream ~d:s ~n ~faults:(List.map a_of fa)) (fun a ->
          Option.map
            (fun b -> Stream.product ~s ~t a b)
            (hc_avoiding_stream ~d:t ~n ~faults:(List.map b_of fb)))

and prime_power_stream ~d ~n ~faults =
  let t = Shift_cycles.make ~d ~n in
  let p = t.Shift_cycles.p in
  let fs = Faults.make p faults in
  (* A shifted cycle is usable iff it owns no fault: one O(n) owner
     computation per fault, then O(1) flag reads — no list scans. *)
  let owner_faulty = Array.make d false in
  List.iter (fun e -> owner_faulty.(Shift_cycles.owner_of_edge t e) <- true) faults;
  let try_s s =
    let rec try_k k =
      if k >= d then None
      else if k = s then try_k (k + 1)
      else
        let exit_node, sn, entry_node = Shift_cycles.insertion_nodes t ~s ~k in
        if Faults.mem fs exit_node sn || Faults.mem fs sn entry_node then try_k (k + 1)
        else Some (Stream.hamiltonize t ~s ~k)
    in
    try_k 0
  in
  let rec try_shift s =
    if s >= d then None
    else if owner_faulty.(s) then try_shift (s + 1)
    else match try_s s with Some st -> Some st | None -> try_shift (s + 1)
  in
  try_shift 0

let hc_avoiding_via_disjoint_stream ~d ~n ~faults =
  let p = W.params ~d ~n in
  validate_faults p faults;
  let streams = Compose.disjoint_hamiltonian_streams ~d ~n in
  (* Survivor selection by word arithmetic: a Hamiltonian stream carries
     the fault u → v iff succ u = v, so each candidate costs O(f·n)
     probes instead of a dⁿ walk. *)
  List.find_opt
    (fun st -> List.for_all (fun (u, v) -> not (Stream.contains_edge st u v)) faults)
    streams

let best_hc_avoiding_stream ~d ~n ~faults =
  match hc_avoiding_stream ~d ~n ~faults with
  | Some st -> Some st
  | None -> hc_avoiding_via_disjoint_stream ~d ~n ~faults

(* Every member of the ψ(d) family that avoids the whole fault set —
   the rings a striped collective can still drive.  Same O(f·n)-probe
   screening as [hc_avoiding_via_disjoint_stream], kept in family order
   so stripe indices are stable across fault sets. *)
let surviving_disjoint_streams ~d ~n ~faults =
  let p = W.params ~d ~n in
  validate_faults p faults;
  List.filter
    (fun st -> List.for_all (fun (u, v) -> not (Stream.contains_edge st u v)) faults)
    (Compose.disjoint_hamiltonian_streams ~d ~n)

(* ------------------------------------------------------------------ *)
(* Materializing wrappers — the seed API, same outputs as the seed
   engine (digit sequences of length dⁿ). *)

let hc_avoiding ~d ~n ~faults =
  Option.map Stream.to_sequence (hc_avoiding_stream ~d ~n ~faults)

let hc_avoiding_via_disjoint ~d ~n ~faults =
  Option.map Stream.to_sequence (hc_avoiding_via_disjoint_stream ~d ~n ~faults)

let best_hc_avoiding ~d ~n ~faults =
  Option.map Stream.to_sequence (best_hc_avoiding_stream ~d ~n ~faults)

let via_node_masking ~d ~n ~faults =
  let p = W.params ~d ~n in
  validate_faults p faults;
  let masked = List.sort_uniq Int.compare (List.concat_map (fun (u, v) -> [ u; v ]) faults) in
  Option.map (fun e -> e.Ffc.Embed.cycle) (Ffc.Embed.embed p ~faults:masked)

let worst_case_edge_faults ~d ~n f =
  if f < 0 || f > d - 1 then invalid_arg "Edge_fault.worst_case_edge_faults";
  let p = W.params ~d ~n in
  let zero = W.constant p 0 in
  List.init f (fun i ->
      let a = i + 1 in
      (W.cons p a (W.prefix p zero), zero))
