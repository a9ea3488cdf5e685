module N = Numtheory
module W = Debruijn.Word
module Nk = Debruijn.Necklace

(* Propositions 4.1 and 4.2 over any class whose sizes [gamma j] =
   #Γ(j) are known. *)
let of_length_generic ~gamma t =
  N.sum_over_divisors t (fun j -> gamma j * N.mobius (t / j)) / t

let total_generic ~gamma n =
  N.sum_over_divisors n (fun j -> gamma j * N.euler_phi (n / j)) / n

let of_length ~d ~n ~t =
  if t < 1 || n mod t <> 0 then 0
  else of_length_generic ~gamma:(fun j -> N.pow d j) t

let total ~d ~n = total_generic ~gamma:(fun j -> N.pow d j) n

let tuples_of_weight ~d ~n ~k =
  if k < 0 || k > n * (d - 1) then 0
  else begin
    (* Inclusion–exclusion over digits forced ≥ d ([Knu73] generating
       function (1 + z + … + z^{d−1})ⁿ). *)
    let acc = ref 0 in
    for i = 0 to k / d do
      let term = N.binomial n i * N.binomial (n - 1 + k - (d * i)) (n - 1) in
      acc := !acc + (if i mod 2 = 0 then term else -term)
    done;
    !acc
  end

(* Weight-k nodes satisfy Conditions A/B with g(m) = km/n: Γ(j) counts
   j-tuples of weight jk/n, which is zero unless jk/n is integral. *)
let weight_gamma ~d ~n ~k j =
  if j * k mod n <> 0 then 0 else tuples_of_weight ~d ~n:j ~k:(j * k / n)

let of_weight_and_length ~d ~n ~k ~t =
  if t < 1 || n mod t <> 0 then 0
  else of_length_generic ~gamma:(weight_gamma ~d ~n ~k) t

let of_weight ~d ~n ~k = total_generic ~gamma:(weight_gamma ~d ~n ~k) n

let tuples_of_type counts = N.multinomial counts

let type_gamma ~n ~counts j =
  (* Γ(j) = number of j-tuples of type (j·k₀/n, …); zero unless all the
     scaled counts are integral. *)
  if List.exists (fun k -> j * k mod n <> 0) counts then 0
  else tuples_of_type (List.map (fun k -> j * k / n) counts)

let of_type_and_length ~n ~counts ~t =
  if List.fold_left ( + ) 0 counts <> n then invalid_arg "Count.of_type: counts must sum to n";
  if t < 1 || n mod t <> 0 then 0
  else of_length_generic ~gamma:(type_gamma ~n ~counts) t

let of_type ~n ~counts =
  if List.fold_left ( + ) 0 counts <> n then invalid_arg "Count.of_type: counts must sum to n";
  total_generic ~gamma:(type_gamma ~n ~counts) n

(* ------------------------------------------------------------------ *)
(* Exhaustive references *)

let enumerate_filtered ~d ~n pred =
  let p = W.params ~d ~n in
  List.length
    (List.filter (fun r -> pred p r) (Nk.all_representatives p))

let enumerate_of_length ~d ~n ~t =
  enumerate_filtered ~d ~n (fun p r -> Nk.length p r = t)

let enumerate_total ~d ~n = enumerate_filtered ~d ~n (fun _ _ -> true)

let enumerate_of_weight ~d ~n ~k =
  enumerate_filtered ~d ~n (fun p r -> W.weight p r = k)

let enumerate_of_weight_and_length ~d ~n ~k ~t =
  enumerate_filtered ~d ~n (fun p r -> W.weight p r = k && Nk.length p r = t)

let enumerate_of_type ~d ~n ~counts =
  let counts = Array.of_list counts in
  enumerate_filtered ~d ~n (fun p r ->
      Array.for_all Fun.id
        (Array.mapi (fun a k -> W.count_digit p a r = k) counts))
