module DG = Graphlib.Digraph

type t = {
  d : int;
  n : int;
  size : int;
  graph : DG.t;
}

(* code = x₁·d^{n−1} + Σ δᵢ·d^{n−1−i} with x_{i+1} = (x_i + 1 + δ_i) mod (d+1) *)

let decode_letters ~d ~n code =
  let pow = Array.make n 1 in
  for i = 1 to n - 1 do
    pow.(i) <- pow.(i - 1) * d
  done;
  let letters = Array.make n 0 in
  letters.(0) <- code / pow.(n - 1);
  let rest = ref (code mod pow.(n - 1)) in
  for i = 1 to n - 1 do
    let delta = !rest / pow.(n - 1 - i) in
    rest := !rest mod pow.(n - 1 - i);
    letters.(i) <- (letters.(i - 1) + 1 + delta) mod (d + 1)
  done;
  letters

let encode_letters ~d letters =
  let n = Array.length letters in
  Array.iteri
    (fun i x ->
      if x < 0 || x > d then invalid_arg "Kautz.encode: letter out of range";
      if i > 0 && x = letters.(i - 1) then
        invalid_arg "Kautz.encode: adjacent letters equal")
    letters;
  let code = ref letters.(0) in
  for i = 1 to n - 1 do
    let delta = ((letters.(i) - letters.(i - 1) - 1) mod (d + 1) + (d + 1)) mod (d + 1) in
    code := (!code * d) + delta
  done;
  !code

let successors_code ~d ~n code =
  let letters = decode_letters ~d ~n code in
  let last = letters.(n - 1) in
  let shifted = Array.append (Array.sub letters 1 (n - 1)) [| 0 |] in
  List.filter_map
    (fun a ->
      if a = last then None
      else begin
        shifted.(n - 1) <- a;
        Some (encode_letters ~d shifted)
      end)
    (List.init (d + 1) Fun.id)

let create ~d ~n =
  if d < 2 then invalid_arg "Kautz.create: d < 2";
  if n < 1 then invalid_arg "Kautz.create: n < 1";
  let size = (d + 1) * Numtheory.pow d (n - 1) in
  if size > 1 lsl 22 then invalid_arg "Kautz.create: too large";
  let graph =
    if n = 1 then
      (* K(d,1) is the complete digraph on d+1 nodes without loops. *)
      DG.of_successors (d + 1) (fun v ->
          List.filter (fun w -> w <> v) (List.init (d + 1) Fun.id))
    else DG.of_successors size (successors_code ~d ~n)
  in
  { d; n; size; graph }

let encode t letters =
  if Array.length letters <> t.n then invalid_arg "Kautz.encode: wrong length";
  if t.n = 1 then letters.(0) else encode_letters ~d:t.d letters

let decode t code =
  if code < 0 || code >= t.size then invalid_arg "Kautz.decode: out of range";
  if t.n = 1 then [| code |] else decode_letters ~d:t.d ~n:t.n code

let successors t code = DG.succs t.graph code

let to_string t code =
  String.concat "" (Array.to_list (Array.map string_of_int (decode t code)))

let edge_as_higher_node t (u, v) =
  if not (DG.mem_edge t.graph u v) then invalid_arg "Kautz.edge_as_higher_node: not an edge";
  let lu = decode t u and lv = decode t v in
  encode_letters ~d:t.d (Array.append lu [| lv.(t.n - 1) |])
