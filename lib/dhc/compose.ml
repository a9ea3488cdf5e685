module N = Numtheory

(* Common n with |a| = s^n and |b| = t^n, or raise. *)
let infer_n ~s ~t a b =
  let rec log_base base x acc =
    if x = 1 then Some acc
    else if x mod base = 0 then log_base base (x / base) (acc + 1)
    else None
  in
  match (log_base s (Array.length a) 0, log_base t (Array.length b) 0) with
  | Some na, Some nb when na = nb && na >= 1 -> na
  | _ -> invalid_arg "Compose.product: lengths are not s^n and t^n for a common n"

let product ~s ~t a b =
  if N.gcd s t <> 1 then invalid_arg "Compose.product: s and t must be coprime";
  let n = infer_n ~s ~t a b in
  ignore n;
  let la = Array.length a and lb = Array.length b in
  let len = la * lb in
  Array.init len (fun i -> (a.(i mod la) * t) + b.(i mod lb))

let rec disjoint_hamiltonian_cycles ~d ~n =
  match N.factorize d with
  | [] | [ _ ] -> Strategies.disjoint_hamiltonian_cycles ~d ~n
  | (p, e) :: _ ->
      (* Peel one prime power t = p^e off d = s·t and combine all pairs
         (Proposition 3.2). *)
      let t = N.pow p e in
      let s = d / t in
      let as_ = disjoint_hamiltonian_cycles ~d:s ~n in
      let bs = Strategies.disjoint_hamiltonian_cycles ~d:t ~n in
      List.concat_map (fun a -> List.map (fun b -> product ~s ~t a b) bs) as_

(* The same family as streams: identical recursion, so the i-th stream
   is the i-th materialized cycle with the same node order. *)
let rec disjoint_hamiltonian_streams ~d ~n =
  match N.factorize d with
  | [] | [ _ ] -> Strategies.disjoint_hamiltonian_streams ~d ~n
  | (p, e) :: _ ->
      let t = N.pow p e in
      let s = d / t in
      let as_ = disjoint_hamiltonian_streams ~d:s ~n in
      let bs = Strategies.disjoint_hamiltonian_streams ~d:t ~n in
      List.concat_map (fun a -> List.map (fun b -> Stream.product ~s ~t a b) bs) as_

(* Bounded enumeration: the guarantee of Propositions 3.1/3.2 is exactly
   ψ(d) members, so asking for more is a caller error, reported eagerly
   rather than by returning a short list the caller would mis-stripe
   over.  Building the family is O(ψ(d)) closures, so constructing it
   fully and slicing costs nothing measurable. *)
let disjoint_streams_upto ~d ~n ~k =
  let psi = Psi.psi d in
  if k < 1 || k > psi then
    invalid_arg
      (Fmt.str "Compose.disjoint_streams_upto: k = %d outside [1, psi(%d) = %d]"
         k d psi);
  let rec take k = function
    | [] -> []
    | _ when k = 0 -> []
    | st :: rest -> st :: take (k - 1) rest
  in
  take k (disjoint_hamiltonian_streams ~d ~n)
