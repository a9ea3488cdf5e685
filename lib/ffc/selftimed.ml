module W = Debruijn.Word
module S = Netsim.Simulator
module Node = Distributed.Node

type t = {
  bstar : Bstar.t;
  successor : int array;
  cycle : int array;
  total_rounds : int;
  messages : int;
  trace : S.round_metrics array;
}

let schedule_length ~n = (5 * n) + 4

(* The phase every node opens at [round] (see the interface). *)
let opening ~n round =
  if round = 0 then Some Node.Probe
  else if round = n then Some Node.Broadcast
  else if round = (3 * n) + 2 then Some Node.Choose
  else if round = (4 * n) + 3 then Some Node.Exchange
  else if round = (4 * n) + 4 then Some Node.Membership
  else None

let run (bstar : Bstar.t) =
  let p = bstar.Bstar.p in
  let n = p.W.n in
  let total = schedule_length ~n in
  let nodes = Node.create bstar in
  (* Every live node steps every round until the schedule ends, mail or
     not, so the round last stepped is all the schedule state there
     is. *)
  let clock = ref 0 in
  let proto =
    {
      S.step =
        (fun ~round v inbox ~send ->
          clock := round;
          Node.step nodes (opening ~n round) v inbox ~send);
      wants_step = (fun _ -> !clock < total);
    }
  in
  let r =
    (* Out of regime, floods from late-reached nodes can still be in
       flight when the wind-down budget runs out. *)
    try
      S.run ~max_rounds:(total + 8) ~topology:(S.de_bruijn p)
        ~faulty:(Bstar.fault_probe bstar) proto
    with S.Did_not_converge _ ->
      Pipeline_error.raise_error ~stage:"Selftimed" "traffic outlived the fixed schedule"
  in
  let successor, cycle = Node.read_out ~stage:"Selftimed" nodes in
  { bstar; successor; cycle; total_rounds = r.S.rounds; messages = r.S.delivered; trace = r.S.trace }
