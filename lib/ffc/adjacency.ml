module W = Debruijn.Word
module Nk = Debruijn.Necklace
module Fa = Graphlib.Flatarr

type t = { bstar : Bstar.t; reps : int array; idx_of_node : Fa.I32.t }

(* The necklace walk of the ascending pass: [digits] holds the
   representative x's base-d digits, most significant first, so the
   j-th rotation y = a·dⁿ⁻¹ + w of x, a = digits.(j), steps to
   w·d + a with no division.  Module-level recursion: a capturing
   [let rec] inside the pass would allocate a closure per necklace. *)
let rec walk_necklace (idx_of_node : Fa.I32.t) digits top d i x y j =
  idx_of_node.{y} <- Int32.of_int i;
  let a = digits.(j) in
  let y' = ((y - (a * top)) * d) + a in
  if y' <> x then walk_necklace idx_of_node digits top d i x y' (j + 1)
[@@lint.hot]

(* Step the odometer [digits] (least significant last) from x to
   x + 1; past dⁿ − 1 it wraps to zero. *)
let rec tick digits d j =
  if j >= 0 then
    if digits.(j) = d - 1 then begin
      digits.(j) <- 0;
      tick digits d (j - 1)
    end
    else digits.(j) <- digits.(j) + 1
[@@lint.hot]

(* The necklace exit/entry rule, over any node → necklace key table
   that is −1 outside B*: the batch stages pass [idx_of_node] and an
   index, [Live] its representative table and a representative.  Both
   tables are 32-bit cells. *)
let rec exit_scan p (key : Fa.I32.t) k w a =
  if a >= p.W.d then -1
  else
    let x = W.cons p a w in
    if Int32.to_int key.{x} = k then x else exit_scan p key k w (a + 1)
[@@lint.hot]

let rec entry_scan p (key : Fa.I32.t) k w b =
  if b >= p.W.d then -1
  else
    let x = W.snoc p w b in
    if Int32.to_int key.{x} = k then x else entry_scan p key k w (b + 1)
[@@lint.hot]

let build ?ws (bstar : Bstar.t) =
  let p = bstar.Bstar.p in
  let size = p.W.size in
  let in_bstar = bstar.Bstar.in_bstar in
  (* One ascending pass: the first live node of each necklace is its
     minimal rotation, i.e. the representative, so the index is built
     without computing canonical forms or listing all of B(d,n).  The
     workspace rep buffer is already sized for every necklace of
     B(d,n), so it never grows; [reps] itself stays an exact-size heap
     copy either way — consumers use its length as the necklace
     count. *)
  let idx_of_node, growable =
    match ws with
    | None -> (Fa.I32.make size (-1), true)
    | Some w ->
        Workspace.check w p;
        Fa.I32.fill w.Workspace.idx_of_node (-1);
        (w.Workspace.idx_of_node, false)
  in
  let reps_buf =
    ref (match ws with None -> Fa.create 64 | Some w -> w.Workspace.reps_buf)
  in
  let count = ref 0 in
  let d = p.W.d in
  let top = size / d and digits = Array.make p.W.n 0 in
  for x = 0 to size - 1 do
    if in_bstar.{x} <> 0 && Int32.to_int idx_of_node.{x} < 0 then begin
      if growable && !count = Fa.length !reps_buf then begin
        let b = Fa.create (2 * !count) in
        Fa.blit !reps_buf b;
        reps_buf := b
      end;
      !reps_buf.{!count} <- x;
      walk_necklace idx_of_node digits top d !count x x 0;
      incr count
    end;
    tick digits d (p.W.n - 1)
  done;
  let reps = Fa.sub_to_array !reps_buf 0 !count in
  { bstar; reps; idx_of_node }

let edges t =
  let p = t.bstar.Bstar.p in
  let in_bstar = t.bstar.Bstar.in_bstar in
  let wsize = p.W.size / p.W.d in
  let members = Array.make p.W.d 0 in
  let acc = ref [] in
  for w = wsize - 1 downto 0 do
    let k = ref 0 in
    for a = 0 to p.W.d - 1 do
      let x = W.cons p a w in
      if in_bstar.{x} <> 0 then begin
        members.(!k) <- Int32.to_int t.idx_of_node.{x};
        incr k
      end
    done;
    for i = 0 to !k - 1 do
      for j = i + 1 to !k - 1 do
        acc := (members.(i), members.(j), w) :: (members.(j), members.(i), w)
               :: !acc
      done
    done
  done;
  !acc

let index_of_rep t rep =
  let rec go i =
    if i >= Array.length t.reps then raise Not_found
    else if t.reps.(i) = rep then i
    else go (i + 1)
  in
  go 0

let node_with_suffix t idx w =
  match exit_scan t.bstar.Bstar.p t.idx_of_node idx w 0 with
  | x when x < 0 -> None
  | x -> Some x

let node_with_prefix t idx w =
  match entry_scan t.bstar.Bstar.p t.idx_of_node idx w 0 with
  | x when x < 0 -> None
  | x -> Some x

let labels_between t i j =
  (* Arithmetic: a w-edge [X]→[Y] needs the exit node αw on [X] and an
     entry βw (β ≠ α) on [Y]; each necklace holds at most one node per
     suffix w, so walking [X] enumerates every candidate w once. *)
  let p = t.bstar.Bstar.p in
  if i < 0 || i >= Array.length t.reps || j < 0 || j >= Array.length t.reps
  then []
  else begin
    let acc = ref [] in
    Nk.iter_nodes_from p t.reps.(i) (fun x ->
        let w = W.suffix p x in
        let alpha = W.first_digit p x in
        let hit = ref false in
        for b = 0 to p.W.d - 1 do
          if b <> alpha && Int32.to_int t.idx_of_node.{W.cons p b w} = j then
            hit := true
        done;
        if !hit then acc := w :: !acc);
    List.sort Int.compare !acc
  end
