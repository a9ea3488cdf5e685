type params = { d : int; n : int; size : int }

let params ~d ~n =
  if d < 2 then invalid_arg "Word.params: d < 2";
  if n < 1 then invalid_arg "Word.params: n < 1";
  (* Guard against overflow: dⁿ must fit comfortably in an int. *)
  let rec pow acc i =
    if i = 0 then acc
    else if acc > max_int / d then invalid_arg "Word.params: d^n too large"
    else pow (acc * d) (i - 1)
  in
  { d; n; size = pow 1 n }

let check p x =
  if x < 0 || x >= p.size then invalid_arg "Word: code out of range"

let encode p digits =
  if Array.length digits <> p.n then invalid_arg "Word.encode: wrong length";
  Array.fold_left
    (fun acc c ->
      if c < 0 || c >= p.d then invalid_arg "Word.encode: digit out of range";
      (acc * p.d) + c)
    0 digits

let decode p x =
  check p x;
  let digits = Array.make p.n 0 in
  let rec fill x i =
    if i >= 0 then begin
      digits.(i) <- x mod p.d;
      fill (x / p.d) (i - 1)
    end
  in
  fill x (p.n - 1);
  digits

let digit p x i =
  check p x;
  if i < 1 || i > p.n then invalid_arg "Word.digit: index out of range";
  x / Numtheory.pow p.d (p.n - i) mod p.d

let first_digit p x = check p x; x / (p.size / p.d)
let last_digit p x = check p x; x mod p.d
let prefix p x = check p x; x / p.d
let suffix p x = check p x; x mod (p.size / p.d)

let cons p a w =
  if a < 0 || a >= p.d then invalid_arg "Word.cons: digit out of range";
  if w < 0 || w >= p.size / p.d then invalid_arg "Word.cons: word out of range";
  (a * (p.size / p.d)) + w

let snoc p w a =
  if a < 0 || a >= p.d then invalid_arg "Word.snoc: digit out of range";
  if w < 0 || w >= p.size / p.d then invalid_arg "Word.snoc: word out of range";
  (w * p.d) + a

let rotl p x = check p x; (x mod (p.size / p.d) * p.d) + (x / (p.size / p.d))

let rotl_by p i x =
  let i = ((i mod p.n) + p.n) mod p.n in
  let rec go x i = if i = 0 then x else go (rotl p x) (i - 1) in
  go x i

let weight p x =
  let rec go x acc = if x = 0 then acc else go (x / p.d) (acc + (x mod p.d)) in
  check p x;
  go x 0

let count_digit p a x =
  check p x;
  if a < 0 || a >= p.d then invalid_arg "Word.count_digit: digit out of range";
  let rec go x i acc =
    if i = 0 then acc else go (x / p.d) (i - 1) (if x mod p.d = a then acc + 1 else acc)
  in
  go x p.n 0

(* The period is the first t >= 1 with rotl^t x = x, so walking the
   rotations until back at [x] finds it in at most n steps; module-level
   recursion, so it allocates nothing (Ffc.Live reads it per event). *)
let rec period_from stride d x y t =
  let y' = (y mod stride * d) + (y / stride) in
  if y' = x then t else period_from stride d x y' (t + 1)

let period p x =
  check p x;
  period_from (p.size / p.d) p.d x x 1

let is_aperiodic p x = period p x = p.n

let constant p a =
  if a < 0 || a >= p.d then invalid_arg "Word.constant: digit out of range";
  a * (p.size - 1) / (p.d - 1)

let alternating p a b =
  let digits = Array.init p.n (fun i -> if i mod 2 = 0 then a else b) in
  encode p digits

let successors p x =
  let s = suffix p x in
  List.init p.d (fun a -> snoc p s a)

let predecessors p x =
  let w = prefix p x in
  List.init p.d (fun a -> cons p a w)

(* Allocation-free counterpart of [successors], in the same digit
   order. *)
let iter_succs p x f =
  let base = x mod (p.size / p.d) * p.d in
  for a = 0 to p.d - 1 do
    f (base + a)
  done

(* suffix u = prefix v, by arithmetic and range-checked without
   raising: the O(1) edge test of B(d,n) as a message topology. *)
let is_edge p u v =
  u >= 0 && u < p.size && v >= 0 && v < p.size && u mod (p.size / p.d) = v / p.d

let edge_code p u v =
  check p u;
  check p v;
  if suffix p u <> prefix p v then invalid_arg "Word.edge_code: not a De Bruijn edge";
  (u * p.d) + last_digit p v

let edge_of_code p c =
  if c < 0 || c >= p.size * p.d then invalid_arg "Word.edge_of_code: out of range";
  let u = c / p.d and a = c mod p.d in
  (u, snoc p (suffix p u) a)

let to_string p x =
  String.concat "" (Array.to_list (Array.map string_of_int (decode p x)))

let of_string p s =
  if String.length s <> p.n then invalid_arg "Word.of_string: wrong length";
  encode p (Array.init p.n (fun i -> Char.code s.[i] - Char.code '0'))

let all p = List.init p.size Fun.id
