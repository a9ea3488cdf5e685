(* The seed (pre-worklist) simulator, kept verbatim as an executable
   specification: every round does a full O(n) scan, inboxes are linked
   lists sorted with polymorphic [compare], and quiescence detection
   re-scans all nodes.  The qcheck suite checks that {!Simulator.run}
   agrees with this on random protocols, and the [scale] bench section
   measures the worklist rewrite against it.

   Known seed quirks, deliberately preserved here (and fixed in
   {!Simulator}): the inbox sort compares [(src, payload)] pairs with
   polymorphic [compare] (raises on functional payloads); the
   [max_rounds] guard admits [max_rounds + 1] executed rounds; [rounds]
   records the last active round index, not the executed-round count. *)

open Netsim

type 'm outgoing = int * 'm

type ('s, 'm) protocol = {
  initial : int -> 's;
  step : round:int -> int -> 's -> (int * 'm) list -> 's * 'm outgoing list;
  wants_step : 's -> bool;
}

type 's result = {
  rounds : int;
  states : 's array;
  delivered : int;
  max_inflight : int;
  max_port_load : int;
}

let run ?max_rounds ~topology ~faulty proto =
  let n = Graphlib.Digraph.n_nodes topology in
  let max_rounds = Option.value max_rounds ~default:((4 * n) + 64) in
  let live v = not (faulty v) in
  let states = Array.init n proto.initial in
  (* inboxes.(v) holds (src, payload) pairs, most recent first. *)
  let inboxes : (int * 'm) list array = Array.make n [] in
  let delivered = ref 0 in
  let max_inflight = ref 0 in
  let max_port_load = ref 0 in
  let rounds = ref 0 in
  let finished = ref false in
  let round = ref 0 in
  while not !finished do
    if !round > max_rounds then raise (Simulator.Did_not_converge max_rounds);
    (* Decide who steps this round: round 0 everyone; later, nodes with
       mail or an explicit wish. *)
    let inflight = ref 0 in
    let next_inboxes = Array.make n [] in
    let any_activity = ref false in
    for v = 0 to n - 1 do
      if live v then begin
        let inbox = List.sort compare inboxes.(v) in
        let should_step = !round = 0 || inbox <> [] || proto.wants_step states.(v) in
        if should_step then begin
          any_activity := true;
          delivered := !delivered + List.length inbox;
          inflight := !inflight + List.length inbox;
          let state', sends = proto.step ~round:!round v states.(v) inbox in
          states.(v) <- state';
          max_port_load := max !max_port_load (List.length sends);
          List.iter
            (fun (dst, payload) ->
              if not (Graphlib.Digraph.mem_edge topology v dst) then
                raise (Simulator.Illegal_send { round = !round; src = v; dst });
              if live dst then next_inboxes.(dst) <- (v, payload) :: next_inboxes.(dst))
            sends
        end
      end
    done;
    max_inflight := max !max_inflight !inflight;
    Array.blit next_inboxes 0 inboxes 0 n;
    if !any_activity then rounds := !round;
    (* Stop when the network is quiescent: no mail in flight and nobody
       volunteers to step. *)
    let mail = Array.exists (fun l -> l <> []) inboxes in
    let eager = ref false in
    for v = 0 to n - 1 do
      if live v && proto.wants_step states.(v) then eager := true
    done;
    if (not mail) && not !eager then finished := true else incr round
  done;
  {
    rounds = !rounds;
    states;
    delivered = !delivered;
    max_inflight = !max_inflight;
    max_port_load = !max_port_load;
  }
