module W = Debruijn.Word
module Fa = Graphlib.Flatarr

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
  dist : Fa.I32.t;
  order : Fa.I32.t;
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

let create p =
  let size = p.W.size in
  Fa.I32.check_nodes size;
  let wsize = size / p.W.d in
  (* The fault-free necklace count (Ch. 4's closed form) bounds the
     live necklace count of any B*. *)
  let m = Necklace_count.Count.total ~d:p.W.d ~n:p.W.n in
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
  let cells = 3 * Fa.Arena.aligned_cells size in
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
    dist = Fa.Arena.carve_i32 arena size;
    order = Fa.Arena.carve_i32 arena size;
    reps_buf = carve m;
    parent = carve m;
    label = carve m;
    chosen = carve m;
    nscratch = carve (m + 1);
    bucket_next = carve m;
    bucket_par = carve wsize;
    bucket_head = carve wsize;
  }

let resolve ws p =
  match ws with
  | None -> create p
  | Some t ->
      if t.p.W.d <> p.W.d || t.p.W.n <> p.W.n then
        invalid_arg "Ffc.Workspace: workspace built for a different (d, n)";
      t
