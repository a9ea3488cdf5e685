(* R7: a fresh table of 32-bit cells inside a [@lint.hot] scope,
   through a module alias. *)
module I32 = Graphlib.Flatarr.I32

let relayer (dist : I32.t) n =
  (for i = 0 to n - 1 do
     let seen = I32.make 4 (-1) in
     dist.{i} <- Int32.of_int (Int32.to_int dist.{i} + Int32.to_int seen.{0})
   done)
  [@lint.hot]
