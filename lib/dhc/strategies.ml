module G = Galois.Gf
module N = Numtheory

type choice =
  | S1
  | S2 of { lambda : int; a : int; b : int }
  | S3 of { lambda : int; a : int }

let primitive_roots p =
  List.filter (fun g -> N.is_primitive_root g p) (List.init (p - 1) (fun i -> i + 1))

let find_s2 p =
  (* 2 = λ^A + λ^B with A, B odd, for some primitive root λ. *)
  let try_lambda lambda =
    let rec go a =
      if a > p - 2 then None
      else
        let rem = ((2 - N.pow_mod lambda a p) mod p + p) mod p in
        let next () = go (a + 2) in
        if rem = 0 then next ()
        else
          match N.discrete_log lambda rem p with
          | Some b when b mod 2 = 1 -> Some (S2 { lambda; a; b })
          | _ -> next ()
    in
    go 1
  in
  List.find_map try_lambda (primitive_roots p)

let find_s3 p =
  let try_lambda lambda =
    match N.discrete_log lambda 2 p with
    | Some a when a mod 2 = 1 -> Some (S3 { lambda; a })
    | _ -> None
  in
  List.find_map try_lambda (primitive_roots p)

let condition_b_holds ~p = Option.is_some (find_s2 p)

let choose ~p =
  if not (N.is_prime p) then invalid_arg "Strategies.choose: p not prime";
  if p = 2 then S1
  else
    match (find_s2 p, find_s3 p) with
    | Some s2, _ when (p - 1) / 2 mod 2 = 0 -> s2  (* H₀ can be added *)
    | _, Some s3 -> s3
    | Some s2, None -> s2
    | None, None -> assert false (* Lemma 3.5 *)

let replacement_function (t : Shift_cycles.t) choice x =
  let f = t.Shift_cycles.lfsr.Lfsr.field in
  match choice with
  | S1 -> if x = 0 then 1 else 0
  | S2 { lambda; a; _ } | S3 { lambda; a } ->
      if x = 0 then G.of_int f lambda
      else G.mul f (G.pow f (G.of_int f lambda) a) x

let selected_shifts field choice =
  match choice with
  | S1 -> G.nonzero field
  | S2 { lambda; _ } | S3 { lambda; _ } ->
      let d = G.order field in
      let p = match N.is_prime_power d with Some (p, _) -> p | None -> assert false in
      let lam = G.of_int field lambda in
      (* Partition GF(d)* into cosets of J = ⟨λ⟩ and keep the elements at
         even λ-exponents relative to the coset base.  The coset of 1
         must use base 1 so that λ and −λ (odd powers) stay excluded,
         which is what lets H₀ join in Strategy 2. *)
      let assigned = Hashtbl.create d in
      let shifts = ref [] in
      let process base =
        if not (Hashtbl.mem assigned base) then begin
          let x = ref base in
          for j = 0 to p - 2 do
            Hashtbl.replace assigned !x ();
            if j mod 2 = 0 then shifts := !x :: !shifts;
            x := G.mul field !x lam
          done
        end
      in
      process 1;
      List.iter process (G.nonzero field);
      let with_zero =
        match choice with
        | S2 _ when (p - 1) / 2 mod 2 = 0 -> 0 :: !shifts
        | _ -> !shifts
      in
      List.sort Int.compare with_zero

(* The shift-cycle family and the ψ(d) pairs (s, f(s)) that the chosen
   strategy makes pairwise disjoint: the shared core of the two
   constructions below. *)
let disjoint_shift_pairs ~d ~n =
  let t = Shift_cycles.make ~d ~n in
  let field = t.Shift_cycles.lfsr.Lfsr.field in
  let p = match N.is_prime_power d with Some (p, _) -> p | None -> assert false in
  let choice = choose ~p in
  let f = replacement_function t choice in
  (t, List.map (fun s -> (s, f s)) (selected_shifts field choice))

let disjoint_hamiltonian_cycles ~d ~n =
  let t, pairs = disjoint_shift_pairs ~d ~n in
  List.map (fun (s, k) -> Shift_cycles.hamiltonize t ~s ~k) pairs

let disjoint_hamiltonian_streams ~d ~n =
  let t, pairs = disjoint_shift_pairs ~d ~n in
  List.map (fun (s, k) -> Stream.hamiltonize t ~s ~k) pairs
