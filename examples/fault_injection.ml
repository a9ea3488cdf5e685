(* Fault injection: an operator's view of a degrading 1024-node network.

   Processors of B(4,5) fail one by one; after each failure the network
   re-runs the distributed FFC protocol and reports the surviving ring.
   This is the live version of the thesis's Table 2.2 experiment.

   Run with:  dune exec examples/fault_injection.exe [seed] *)

module W = Core.Word
module S = Core.Simulator

let print_phase_trace stats =
  Printf.printf "\n  round-by-round trace of the first re-embedding:\n";
  Printf.printf "  %-11s %4s %8s %10s %10s %10s\n" "phase" "rnd" "active"
    "delivered" "sent" "wall";
  List.iter
    (fun (phase, trace) ->
      Array.iteri
        (fun r (m : S.round_metrics) ->
          Printf.printf "  %-11s %4d %8d %10d %10d %8.1fus\n"
            (if r = 0 then phase else "")
            r m.S.active m.S.delivered_in_round m.S.sent (m.S.wall_ns /. 1e3))
        trace)
    stats.Core.Distributed.phase_traces;
  print_newline ()

let () =
  let seed = if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 2024 in
  let d = 4 and n = 5 in
  let p = W.params ~d ~n in
  let rng = Core.Rng.create seed in
  Printf.printf "B(%d,%d): %d processors, injecting faults one at a time (seed %d)\n\n"
    d n p.W.size seed;
  Printf.printf "%6s  %12s  %12s  %8s  %8s  %9s\n" "faults" "ring length" "guarantee"
    "rounds" "msgs" "lost/flt";
  let faults = ref [] in
  let continue = ref true in
  while !continue && List.length !faults < 16 do
    (* a fresh fault on a processor that is still alive *)
    let rec fresh () =
      let v = Core.Rng.int rng p.W.size in
      if List.mem v !faults then fresh () else v
    in
    faults := fresh () :: !faults;
    let f = List.length !faults in
    match Core.fault_free_ring_distributed ~d ~n ~faults:!faults with
    | None ->
        Printf.printf "%6d  network destroyed\n" f;
        continue := false
    | Some (ring, stats) ->
        let len = Array.length ring in
        let lost = p.W.size - len in
        Printf.printf "%6d  %12d  %12d  %8d  %8d  %9.1f\n" f len
          (Core.ring_length_guarantee ~d ~n ~f)
          stats.Core.Distributed.total_rounds stats.Core.Distributed.messages
          (float_of_int lost /. float_of_int f);
        if f = 1 then print_phase_trace stats
  done;
  Printf.printf
    "\n('lost/flt' is the average number of ring slots lost per fault; the\n\
    \ thesis's worst case is n = %d, and short faulty necklaces lose fewer.)\n"
    n
