(* Off-heap flat int arrays (Bigarray-backed) and the arena carver.

   The pipeline's working set is a few words per node; as ordinary [int
   array]s those words live on the OCaml heap, where every major slice
   walks them and every fresh trial re-pays the allocation.  A
   [Bigarray.Array1] of kind [int] holds the same unboxed 63-bit ints
   in malloc'd storage the GC never scans, and its [.{i}] access
   compiles to a bounds-checked load — the same cost profile as [.(i)]
   on a heap array.  [Byte] is the one-byte variant for flags and
   digits, [I32] the four-byte one for node ids, necklace keys and BFS
   levels (all below dⁿ ≤ 2³¹).

   [create] does NOT zero (Bigarray gives raw storage); use [make], or
   rely on the pipeline's reset-before-read discipline (DESIGN.md §5).

   [Arena] carves many arrays out of three backing allocations (words,
   bytes and 32-bit cells) at 64-byte-separated offsets, so regions
   written by different domains never share a cache line and a whole
   workspace is one allocation per cell kind instead of a dozen. *)

type t = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

let create n : t = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n

let make n v =
  let a = create n in
  Bigarray.Array1.fill a v;
  a

let length (a : t) = Bigarray.Array1.dim a
let get (a : t) i = a.{i}
let set (a : t) i v = a.{i} <- v
let fill (a : t) v = Bigarray.Array1.fill a v

let fill_prefix (a : t) len v =
  Bigarray.Array1.fill (Bigarray.Array1.sub a 0 len) v

let of_array (src : int array) =
  let n = Array.length src in
  let a = create n in
  for i = 0 to n - 1 do
    a.{i} <- src.(i)
  done;
  a

let sub_to_array (a : t) pos len =
  Array.init len (fun i -> a.{pos + i})

let to_array (a : t) = sub_to_array a 0 (length a)

let blit (src : t) (dst : t) =
  Bigarray.Array1.blit src (Bigarray.Array1.sub dst 0 (length src))

module Byte = struct
  type t = (int, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

  let create n : t = Bigarray.Array1.create Bigarray.int8_unsigned Bigarray.c_layout n

  let make n v =
    let a = create n in
    Bigarray.Array1.fill a v;
    a

  let length (a : t) = Bigarray.Array1.dim a
  let get (a : t) i = a.{i}
  let set (a : t) i v = a.{i} <- v
  let fill (a : t) v = Bigarray.Array1.fill a v
  let to_bool_array (a : t) = Array.init (length a) (fun i -> a.{i} <> 0)
end

module I32 = struct
  type t = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t

  let max_nodes = 1 lsl 31

  (* Every value a 32-bit table holds is −1 or below the node count, so
     the count itself bounds the cell width: checked before anything
     node-sized is allocated, so an oversized B(d,n) fails here and not
     in malloc. *)
  let check_nodes n =
    if n > max_nodes then
      invalid_arg
        ("d^n = " ^ string_of_int n
       ^ " nodes is past the 2^31 limit of the 32-bit node tables")

  let create n : t = Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout n
  let length (a : t) = Bigarray.Array1.dim a
  let fill (a : t) v = Bigarray.Array1.fill a (Int32.of_int v)

  let make n v =
    let a = create n in
    fill a v;
    a

  let sub_to_array (a : t) pos len =
    Array.init len (fun i -> Int32.to_int a.{pos + i})

  let to_array (a : t) = sub_to_array a 0 (length a)

  let blit (src : t) (dst : t) =
    Bigarray.Array1.blit src (Bigarray.Array1.sub dst 0 (length src))
end

module Arena = struct
  (* 64 bytes = one cache line on every machine we target. *)
  let align_bytes = 64
  let align_words = align_bytes / 8
  let align_cells = align_bytes / 4

  let aligned_words n = (n + align_words - 1) / align_words * align_words
  let aligned_bytes n = (n + align_bytes - 1) / align_bytes * align_bytes
  let aligned_cells n = (n + align_cells - 1) / align_cells * align_cells

  type arena = {
    words : t;
    bytes : Byte.t;
    cells : I32.t;
    mutable wnext : int;
    mutable bnext : int;
    mutable cnext : int;
  }

  let create ~words ~bytes ~cells =
    let a =
      {
        words = create words;
        bytes = Byte.create bytes;
        cells = I32.create cells;
        wnext = 0;
        bnext = 0;
        cnext = 0;
      }
    in
    (* One-time zeroing: carved views start in a defined state, like
       [make].  Stages still reset what they read before every use. *)
    fill a.words 0;
    Byte.fill a.bytes 0;
    I32.fill a.cells 0;
    a

  let carve a n =
    let off = a.wnext in
    if n < 0 || off + n > length a.words then
      invalid_arg "Flatarr.Arena.carve: arena exhausted";
    a.wnext <- off + aligned_words n;
    Bigarray.Array1.sub a.words off n

  let carve_byte a n =
    let off = a.bnext in
    if n < 0 || off + n > Byte.length a.bytes then
      invalid_arg "Flatarr.Arena.carve_byte: arena exhausted";
    a.bnext <- off + aligned_bytes n;
    Bigarray.Array1.sub a.bytes off n

  let carve_i32 a n =
    let off = a.cnext in
    if n < 0 || off + n > I32.length a.cells then
      invalid_arg "Flatarr.Arena.carve_i32: arena exhausted";
    a.cnext <- off + aligned_cells n;
    Bigarray.Array1.sub a.cells off n

  let words_used a = a.wnext
  let bytes_used a = a.bnext
  let cells_used a = a.cnext
end
