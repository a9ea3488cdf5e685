(* R7: the Stdlib array sorts allocate (an exception block per sift,
   a merge buffer) inside a [@lint.hot] scope. *)
let ranks (keys : int array) rounds =
  (for _ = 1 to rounds do
     Array.sort Int.compare keys;
     Array.stable_sort Int.compare keys;
     Array.fast_sort Int.compare keys
   done)
  [@lint.hot]
