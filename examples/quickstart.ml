(* Quickstart: embed a ring in a faulty De Bruijn network.

   Reproduces the thesis's Example 2.1: nodes 020 and 112 fail in the
   27-node network B(3,3); the FFC algorithm joins the nine surviving
   necklaces into a 21-node ring.

   Run with:  dune exec examples/quickstart.exe *)

module W = Core.Word

let () =
  let d = 3 and n = 3 in
  let p = W.params ~d ~n in
  let faults = [ W.of_string p "020"; W.of_string p "112" ] in
  Printf.printf "Network: B(%d,%d) with %d processors\n" d n p.W.size;
  Printf.printf "Faulty processors: %s\n\n"
    (String.concat ", " (List.map (W.to_string p) faults));
  match Core.fault_free_ring ~d ~n ~faults with
  | None -> print_endline "No processor survived!"
  | Some ring ->
      Printf.printf "Fault-free ring of %d processors (guarantee: >= %d):\n  %s\n\n"
        (Array.length ring)
        (Core.ring_length_guarantee ~d ~n ~f:(List.length faults))
        (String.concat " -> " (List.map (W.to_string p) (Array.to_list ring)));
      (* Every ring edge is a physical link of the network: *)
      let g = Core.Graph.b p in
      assert (Core.Cycle.is_cycle g ring);
      (* ... and the same ring emerges from the distributed protocol: *)
      let dist, stats = Option.get (Core.fault_free_ring_distributed ~d ~n ~faults) in
      assert (dist = ring);
      Printf.printf
        "Distributed protocol found the same ring in %d communication rounds\n"
        stats.Core.Distributed.total_rounds;
      Printf.printf "  (probe %d + broadcast %d + choose %d + exchange %d + membership %d)\n"
        stats.Core.Distributed.probe_rounds stats.Core.Distributed.broadcast_rounds
        stats.Core.Distributed.choose_rounds stats.Core.Distributed.exchange_rounds
        stats.Core.Distributed.membership_rounds
