(* All-to-all broadcast over disjoint Hamiltonian rings (the Chapter 3
   motivation).

   Every processor must deliver a t-unit message to every other
   processor, and each link carries one unit per round.  A single ring
   forces each node to drain (N−1)·t units through one in-link; the
   ψ(d) edge-disjoint rings of Chapter 3 spread the units across ψ(d)
   link-disjoint rings running concurrently.

   The experiment runs both schedules on the synchronous network
   simulator over B(4,3) (64 nodes, ψ(4) = 3 disjoint rings) and
   reports the measured round counts.

   Run with:  dune exec examples/broadcast.exe *)

module W = Core.Word
module S = Netsim.Simulator

type part = { origin : int; index : int } [@@warning "-69"] (* [index] is read only through the polymorphic Hashtbl hash of [part] *)

type state = {
  seen : (part, unit) Hashtbl.t;
  queues : part Queue.t array;  (* one FIFO per ring *)
}

(* All-to-all broadcast over the given rings: part [i] of each node's
   message travels ring [i mod rings].  Returns (rounds, complete). *)
let run_broadcast p ~rings ~parts =
  let nring = List.length rings in
  let succ = Array.of_list (List.map (fun ring -> Graphlib.Cycle.edges_of_cycle ring) rings) in
  let succ_fn =
    Array.map
      (fun edges ->
        let tbl = Hashtbl.create 128 in
        List.iter (fun (u, v) -> Hashtbl.replace tbl u v) edges;
        fun v -> Hashtbl.find tbl v)
      succ
  in
  let states =
    Array.init p.W.size (fun v ->
        let st = { seen = Hashtbl.create 64; queues = Array.init nring (fun _ -> Queue.create ()) } in
        for i = 0 to parts - 1 do
          let part = { origin = v; index = i } in
          Hashtbl.replace st.seen part ();
          Queue.push part st.queues.(i mod nring)
        done;
        st)
  in
  let proto : (int * part) S.protocol =
    {
      step =
        (fun ~round:_ v inbox ~send ->
          let st = states.(v) in
          for i = 0 to S.Inbox.length inbox - 1 do
            let r, part = S.Inbox.msg inbox i in
            if not (Hashtbl.mem st.seen part) then begin
              Hashtbl.replace st.seen part ();
              if part.origin <> v then Queue.push part st.queues.(r)
            end
          done;
          (* one unit per ring link per round *)
          Array.iteri
            (fun r q ->
              if not (Queue.is_empty q) then begin
                let part = Queue.pop q in
                if succ_fn.(r) v <> v then send (succ_fn.(r) v) (r, part)
              end)
            st.queues);
      wants_step = (fun v -> Array.exists (fun q -> not (Queue.is_empty q)) states.(v).queues);
    }
  in
  let result =
    S.run ~max_rounds:(parts * p.W.size * 4)
      ~topology:(S.de_bruijn p)
      ~faulty:(fun _ -> false) proto
  in
  let complete =
    Array.for_all (fun st -> Hashtbl.length st.seen = p.W.size * parts) states
  in
  (result.S.rounds, complete)

let () =
  let d = 4 and n = 3 in
  let p = W.params ~d ~n in
  let rings = Core.disjoint_rings ~d ~n in
  let t = List.length rings in
  Printf.printf "B(%d,%d): %d nodes, psi(%d) = %d edge-disjoint Hamiltonian rings\n\n"
    d n p.W.size d t;
  assert (Core.Cycle.pairwise_edge_disjoint rings);
  let parts = t in
  let single_rounds, ok1 = run_broadcast p ~rings:[ List.hd rings ] ~parts in
  Printf.printf "all-to-all broadcast, %d-unit messages over ONE ring:  %4d rounds%s\n"
    parts single_rounds (if ok1 then "" else "  (INCOMPLETE)");
  let multi_rounds, ok2 = run_broadcast p ~rings ~parts in
  Printf.printf "  same traffic over %d disjoint rings:                 %4d rounds%s\n" t
    multi_rounds (if ok2 then "" else "  (INCOMPLETE)");
  assert (ok1 && ok2);
  Printf.printf "\nspeedup: %.2fx (ideal %dx; each message is split across the rings\n"
    (float_of_int single_rounds /. float_of_int multi_rounds) t;
  Printf.printf "as in the [LS90] wormhole all-to-all scheme cited by the thesis)\n"
