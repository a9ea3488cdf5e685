module S = Netsim.Simulator
module R = Netsim_reference

let run ?max_rounds ?payload_words ~(topology : S.topology) ~faulty
    (proto : ('s, 'm) R.protocol) =
  let states = Array.init topology.S.nodes proto.R.initial in
  let step ~round v ib ~send =
    let inbox =
      List.init (S.Inbox.length ib) (fun i -> (S.Inbox.src ib i, S.Inbox.msg ib i))
    in
    let state, sends = proto.R.step ~round v states.(v) inbox in
    states.(v) <- state;
    List.iter (fun (dst, m) -> send dst m) sends
  in
  let r =
    S.run ?max_rounds ?payload_words ~topology ~faulty
      { S.step; wants_step = (fun v -> proto.R.wants_step states.(v)) }
  in
  (states, r)
