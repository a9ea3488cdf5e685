module W = Debruijn.Word
module Bs = Graphlib.Bitset
module Fa = Graphlib.Flatarr
module It = Graphlib.Itopo

type t = {
  p : W.params;
  max_necklaces : int;
  arena : Fa.Arena.arena;
  (* node-level scratch (dⁿ entries) *)
  necklace_faulty : Fa.Byte.t;
  in_bstar : Fa.Byte.t;
  idx_of_node : Fa.I32.t;
  digit : Succ_digit.t;
  successor : Fa.t;
  cycle_seen : Bs.t;
  it : It.ws;
  (* necklace-level scratch (max_necklaces entries unless noted) *)
  reps_buf : Fa.t;
  parent : Fa.t;
  label : Fa.t;
  chosen : Fa.t;
  nscratch : Fa.t;  (* max_necklaces + 1 *)
  bucket_next : Fa.t;
  (* (n−1)-suffix-level scratch (dⁿ⁻¹ entries) *)
  bucket_par : Fa.t;
  bucket_head : Fa.t;
}

(* Necklace count of the fault-free B(d,n) — an upper bound on the live
   necklace count of any B*.  Same ascending first-hit sweep as
   Adjacency.build: the first unseen node of each necklace is its
   minimal rotation. *)
let count_necklaces p =
  let size = p.W.size in
  let seen = Bs.create size in
  let d = p.W.d in
  let stride = size / d in
  let count = ref 0 in
  for x = 0 to size - 1 do
    if not (Bs.mem seen x) then begin
      incr count;
      let rec mark y =
        Bs.add seen y;
        let y' = (y mod stride * d) + (y / stride) in
        if y' <> x then mark y'
      in
      mark x
    end
  done;
  !count

let create p =
  let size = p.W.size in
  Fa.I32.check_nodes size;
  let wsize = size / p.W.d in
  let m = count_necklaces p in
  (* All scratch comes out of one arena: one backing allocation per
     cell kind (words, bytes, 32-bit cells), every region starting at a
     64-byte-separated offset (Flatarr.Arena), so two campaign domains
     — each with its own workspace — or two arrays of one workspace
     never share a cache line.  The backing sizes are the exact sums of
     the aligned carve sizes below, in order. *)
  let aw = Fa.Arena.aligned_words in
  let wide = Succ_digit.wide_length p in
  let words =
    aw size + aw wide + (5 * aw m) + aw (m + 1) + (2 * aw wsize)
  in
  let bytes = 3 * Fa.Arena.aligned_bytes size in
  let cells = Fa.Arena.aligned_cells size + It.ws_arena_cells size in
  let arena = Fa.Arena.create ~words ~bytes ~cells in
  let carve n =
    let a = Fa.Arena.carve arena n in
    Fa.fill a (-1);
    a
  in
  {
    p;
    max_necklaces = m;
    arena;
    necklace_faulty = Fa.Arena.carve_byte arena size;
    in_bstar = Fa.Arena.carve_byte arena size;
    idx_of_node =
      (let a = Fa.Arena.carve_i32 arena size in
       Fa.I32.fill a (-1);
       a);
    digit = { Succ_digit.bytes = Fa.Arena.carve_byte arena size; wide = carve wide };
    successor = carve size;
    cycle_seen = Bs.create size;
    it = It.ws_create ~arena size;
    reps_buf = carve m;
    parent = carve m;
    label = carve m;
    chosen = carve m;
    nscratch = carve (m + 1);
    bucket_next = carve m;
    bucket_par = carve wsize;
    bucket_head = carve wsize;
  }

let check t p =
  if t.p.W.d <> p.W.d || t.p.W.n <> p.W.n then
    invalid_arg "Ffc.Workspace: workspace built for a different (d, n)"
