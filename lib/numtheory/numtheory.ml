(* Elementary number theory used throughout the reproduction.  See the
   interface for the contract of each function. *)

let rec gcd a b =
  let a = abs a and b = abs b in
  if b = 0 then a else gcd b (a mod b)

let lcm a b = if a = 0 || b = 0 then 0 else abs (a / gcd a b * b)

let pow b e =
  if e < 0 then invalid_arg "Numtheory.pow: negative exponent";
  let rec go acc b e =
    if e = 0 then acc
    else if e land 1 = 1 then go (acc * b) (b * b) (e asr 1)
    else go acc (b * b) (e asr 1)
  in
  go 1 b e

let pow_mod b e m =
  if e < 0 then invalid_arg "Numtheory.pow_mod: negative exponent";
  if m < 1 then invalid_arg "Numtheory.pow_mod: modulus < 1";
  let b = ((b mod m) + m) mod m in
  let rec go acc b e =
    if e = 0 then acc
    else if e land 1 = 1 then go (acc * b mod m) (b * b mod m) (e asr 1)
    else go acc (b * b mod m) (e asr 1)
  in
  go (1 mod m) b e

let is_prime n =
  if n < 2 then false
  else if n < 4 then true
  else if n mod 2 = 0 then false
  else
    let rec loop i = if i * i > n then true else if n mod i = 0 then false else loop (i + 2) in
    loop 3

let factorize n =
  if n < 1 then invalid_arg "Numtheory.factorize: n < 1";
  let rec strip n p e = if n mod p = 0 then strip (n / p) p (e + 1) else (n, e) in
  let rec go n p acc =
    if n = 1 then List.rev acc
    else if p * p > n then List.rev ((n, 1) :: acc)
    else
      let n', e = strip n p 0 in
      let acc = if e > 0 then (p, e) :: acc else acc in
      go n' (if p = 2 then 3 else p + 2) acc
  in
  go n 2 []

let divisors n =
  let fs = factorize n in
  let ds =
    List.fold_left
      (fun ds (p, e) ->
        List.concat_map
          (fun d ->
            let rec powers acc pk i = if i > e then List.rev acc else powers ((d * pk) :: acc) (pk * p) (i + 1) in
            powers [] 1 0)
          ds)
      [ 1 ] fs
  in
  List.sort Int.compare ds

let mobius n =
  let fs = factorize n in
  if List.exists (fun (_, e) -> e > 1) fs then 0
  else if List.length fs mod 2 = 0 then 1
  else -1

let euler_phi n =
  List.fold_left (fun acc (p, e) -> acc * (p - 1) * pow p (e - 1)) 1 (factorize n)

let is_prime_power d =
  if d < 2 then None
  else
    match factorize d with
    | [ (p, e) ] -> Some (p, e)
    | _ -> None

let order_mod a m =
  if m < 2 then invalid_arg "Numtheory.order_mod: modulus < 2";
  let a = ((a mod m) + m) mod m in
  if gcd a m <> 1 then invalid_arg "Numtheory.order_mod: not a unit";
  (* The order divides φ(m); check divisors of φ(m) in increasing order. *)
  let phi = euler_phi m in
  let rec find = function
    | [] -> phi
    | t :: rest -> if pow_mod a t m = 1 then t else find rest
  in
  find (divisors phi)

let is_primitive_root g p =
  let g = ((g mod p) + p) mod p in
  g <> 0 && order_mod g p = p - 1

let primitive_root p =
  if not (is_prime p) then invalid_arg "Numtheory.primitive_root: not prime";
  if p = 2 then 1
  else
    let rec find g = if is_primitive_root g p then g else find (g + 1) in
    find 2

let discrete_log g y p =
  let g = ((g mod p) + p) mod p and y = ((y mod p) + p) mod p in
  let rec loop k acc =
    if k >= p - 1 then None else if acc = y then Some k else loop (k + 1) (acc * g mod p)
  in
  loop 0 (1 mod p)

let binomial n k =
  if k < 0 || k > n then 0
  else
    let k = min k (n - k) in
    let rec go acc i = if i > k then acc else go (acc * (n - k + i) / i) (i + 1) in
    go 1 1

let multinomial ks =
  List.iter (fun k -> if k < 0 then invalid_arg "Numtheory.multinomial: negative part") ks;
  (* Multiply the telescoping binomials C(k₀,k₀)·C(k₀+k₁,k₁)·… to stay in
     integer arithmetic throughout. *)
  let _, acc =
    List.fold_left (fun (n, acc) k -> (n + k, acc * binomial (n + k) k)) (0, 1) ks
  in
  acc

let quadratic_residue a p =
  if p < 3 || not (is_prime p) then invalid_arg "Numtheory.quadratic_residue: p must be an odd prime";
  let a = ((a mod p) + p) mod p in
  if a = 0 then invalid_arg "Numtheory.quadratic_residue: a ≡ 0";
  pow_mod a ((p - 1) / 2) p = 1

let sum_over_divisors n f = List.fold_left (fun acc t -> acc + f t) 0 (divisors n)
