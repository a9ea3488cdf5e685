(* The bench recorder's allocation counter.  Every minor_words figure
   in the BENCH_*.json baselines comes from [Jrec.time_gc], so it must
   read what a thunk allocates to within a few words. *)

(* 30,000 ref cells of two words each (header and field): 60,000 minor
   words.  Ten windows in a row cross several minor collections (the
   minor heap is 256k words), which is where [Gc.counters] jumped by
   up to a heap; without a collection it read 1/8 of the count. *)
let test_minor_words_exact () =
  let cells = 30_000 in
  let alloc () =
    for i = 1 to cells do
      ignore (Sys.opaque_identity (ref i))
    done
  in
  for _ = 1 to 10 do
    let (), g = Jrec.time_gc alloc in
    let expected = float_of_int (2 * cells) in
    if Float.abs (g.Jrec.minor_words -. expected) > 16. then
      Alcotest.failf "time_gc read %.2f minor words for a %.0f-word loop" g.Jrec.minor_words
        expected
  done

let () =
  Alcotest.run "jrec"
    [
      ( "time_gc",
        [
          Alcotest.test_case "minor words exact to a few words" `Quick test_minor_words_exact;
        ] );
    ]
