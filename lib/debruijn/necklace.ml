let canonical p x =
  let rec go best cur i =
    if i = 0 then best
    else
      let cur = Word.rotl p cur in
      go (min best cur) cur (i - 1)
  in
  go x x (p.Word.n - 1)

let length p x = Word.period p x

let nodes_from p x =
  let t = length p x in
  let rec go acc cur i = if i = t then List.rev acc else go (cur :: acc) (Word.rotl p cur) (i + 1) in
  go [] x 0

let nodes p x = nodes_from p (canonical p x)

let iter_nodes_from p x f =
  (* Rotate until the walk returns to [x]: that happens after exactly
     period-many steps, so each necklace node is visited once and
     nothing is allocated. *)
  let rec go cur =
    f cur;
    let nxt = Word.rotl p cur in
    if nxt <> x then go nxt
  in
  go x

let same p x y = canonical p x = canonical p y

let successor = Word.rotl

let all_representatives p =
  List.filter (fun x -> canonical p x = x) (Word.all p)

let count p = List.length (all_representatives p)

let mark_faulty_necklaces_into p faults buf =
  if Array.length buf <> p.Word.size then
    invalid_arg "Necklace.mark_faulty_necklaces_into: buffer sized wrong";
  Array.fill buf 0 p.Word.size false;
  (* Walk each faulty node's rotation cycle directly — no canonical
     search, no lists: the marked set is the same either way. *)
  List.iter (fun x -> iter_nodes_from p x (fun y -> buf.(y) <- true)) faults

let mark_faulty_necklaces p faults =
  let faulty = Array.make p.Word.size false in
  mark_faulty_necklaces_into p faults faulty;
  faulty
