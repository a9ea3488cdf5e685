module W = Debruijn.Word
module Fa = Graphlib.Flatarr

type t = { bytes : Fa.Byte.t; wide : Fa.t }

let outside = 255
let escape = 254

let wide_length p = if p.W.d > escape then p.W.size else 0

let create p = { bytes = Fa.Byte.make p.W.size outside; wide = Fa.make (wide_length p) 0 }

let get t v =
  let b = t.bytes.{v} in
  if b = outside then -1 else if b = escape then t.wide.{v} else b

let set t v beta =
  if beta < escape then t.bytes.{v} <- beta
  else begin
    t.bytes.{v} <- escape;
    t.wide.{v} <- beta
  end

let set_outside t v = t.bytes.{v} <- outside

let blit src dst =
  Bigarray.Array1.blit src.bytes dst.bytes;
  Bigarray.Array1.blit src.wide dst.wide

let successor p t v =
  let b = get t v in
  if b < 0 then -1
  else
    let stride = p.W.size / p.W.d in
    (v mod stride * p.W.d) + b

(* Node a·stride + w has leading digit a, so walking the nodes in
   order of (a, w) hands every node its rotation digit without
   dividing.  The wide half is written for the escaped leading digits
   only, and only read under an escape byte. *)
let fill_rotations p (in_bstar : Fa.Byte.t) t =
  let bytes = t.bytes in
  let d = p.W.d in
  let stride = p.W.size / d in
  for a = 0 to d - 1 do
    let code = if a < escape then a else escape in
    let base = a * stride in
    for x = base to base + stride - 1 do
      bytes.{x} <- (if in_bstar.{x} <> 0 then code else outside)
    done;
    if a >= escape then
      for x = base to base + stride - 1 do
        t.wide.{x} <- a
      done
  done
[@@lint.hot]

let fill_successors p t (out : Fa.t) =
  let bytes = t.bytes in
  let d = p.W.d in
  let stride = p.W.size / d in
  for a = 0 to d - 1 do
    let base = a * stride in
    for w = 0 to stride - 1 do
      let x = base + w in
      let b = bytes.{x} in
      out.{x} <-
        (if b = outside then -1 else (w * d) + if b = escape then t.wide.{x} else b)
    done
  done
[@@lint.hot]

let rec disagreement (in_bstar : Fa.Byte.t) (bytes : Fa.Byte.t) (wide : Fa.t) d size x =
  if x = size then -1
  else
    let b = bytes.{x} in
    let ok =
      if in_bstar.{x} = 0 then b = outside
      else if b = escape then d > escape && wide.{x} >= 0 && wide.{x} < d
      else b <> outside && b < d
    in
    if ok then disagreement in_bstar bytes wide d size (x + 1) else x
[@@lint.hot]

let first_disagreement p in_bstar t = disagreement in_bstar t.bytes t.wide p.W.d p.W.size 0

(* v = αw steps to wβ = (v − α·stride)·d + β.  After the first n−1
   steps, α is the last digit of the ring node n−1 places back, which
   is already in [cycle]: that division runs beside the walk instead
   of on its chain of dependent loads. *)
let rec walk_from (bytes : Fa.Byte.t) (wide : Fa.t) n d stride root (cycle : int array) v len
    =
  if v = root && len > 0 then len
  else if len = Array.length cycle then -1
  else begin
    cycle.(len) <- v;
    let b = bytes.{v} in
    if b = outside then -1
    else
      let beta = if b = escape then wide.{v} else b in
      let alpha = if len >= n - 1 then cycle.(len - n + 1) mod d else v / stride in
      walk_from bytes wide n d stride root cycle (((v - (alpha * stride)) * d) + beta) (len + 1)
  end
[@@lint.hot]

let walk p t root cycle =
  walk_from t.bytes t.wide p.W.n p.W.d (p.W.size / p.W.d) root cycle root 0
