module W = Debruijn.Word
module Fa = Graphlib.Flatarr

type spec = {
  op : Schedule.op;
  ranks : int;
  chunk_words : int;
  bidirectional : bool;
}

type report = {
  rings : int;
  ranks : int;
  phases : int;
  rounds : int;
  delivered : int;
  wire_words : int;
  payload_words : int;
  bytes_per_step : float;
  max_link_load : int;
  max_port_load : int;
  verified : bool;
  checksum : int;
}

(* Per-node, per-ring role.  [base] is the word offset of the rank's
   buffer slice in the run's flat payload arena; [phase] counts the
   receives completed, which is also the index of the next send. *)
type role =
  | Off
  | Relay of { next : int }
  | Rank of { rank : int; next : int; base : int; mutable phase : int }

(* [free] recycles the chunk arrays of consumed receives into the
   node's own later sends — each rank allocates at most two [cw]-word
   arrays over the whole run instead of one per phase.  The pool is
   private to the node state, so the simulator's ?domains stepping
   never shares a buffer across domains. *)
type nstate = {
  mutable started : bool;
  roles : role array;
  mutable free : int array list;
}

type msg = { ring : int; chunk : int; data : int array }

let default_init ~ring ~rank ~chunk ~word =
  1 + (((ring * 1009) + (rank * 31) + (chunk * 7) + word) mod 97)

(* The initial buffer contents per operation: the reducing operations
   start from the full vector everywhere; all-gather starts from
   per-rank ownership (chunk r live at rank r, the rest zero) — the
   same convention as [Schedule.simulate]. *)
let initial_word op ~init ~ring ~rank ~chunk ~word =
  match (op : Schedule.op) with
  | All_gather -> if chunk = rank then init ~ring ~rank ~chunk ~word else 0
  | Reduce_scatter | Allreduce -> init ~ring ~rank ~chunk ~word

(* The closed forms of the .mli hold because relays never transform
   payload: chunk c only ever meets the ranks' own init words, and the
   reduce-scatter wave that starts at rank c has folded in k + 1 ranks
   when it lands at rank c + k.  So per (ring, chunk) one cw-word
   accumulator visits the R ranks' runs in wave order, comparing as it
   goes — each arena word is read once. *)
let verify_arena op ~init ~rings ~ranks ~chunk_words:cw buf =
  if Fa.length buf <> rings * ranks * ranks * cw then
    invalid_arg "Collective.Exec.verify_arena: arena size";
  let prefix, total =
    match (op : Schedule.op) with
    | Reduce_scatter -> (true, false)
    | All_gather -> (false, false)
    | Allreduce -> (false, true)
  in
  let acc = Array.make cw 0 in
  let ok = ref true in
  let sum = ref 0 in
  (for j = 0 to rings - 1 do
     for c = 0 to ranks - 1 do
       for w = 0 to cw - 1 do
         acc.(w) <- (if prefix then 0 else init ~ring:j ~rank:c ~chunk:c ~word:w)
       done;
       if total then
         for i = 1 to ranks - 1 do
           let r = (c + i) mod ranks in
           for w = 0 to cw - 1 do
             acc.(w) <- acc.(w) + init ~ring:j ~rank:r ~chunk:c ~word:w
           done
         done;
       for k = 0 to ranks - 1 do
         let r = (c + k) mod ranks in
         let off = ((((j * ranks) + r) * ranks) + c) * cw in
         for w = 0 to cw - 1 do
           if prefix then acc.(w) <- acc.(w) + init ~ring:j ~rank:r ~chunk:c ~word:w;
           let got = buf.{off + w} in
           sum := !sum + got;
           if got <> acc.(w) then ok := false
         done
       done
     done
   done)
  [@lint.hot];
  (!ok, !sum)

let run_internal ~domains ~edge_faults ~clamp_ranks ~init ~p ~faulty ~rings
    spec =
  let c =
    Compile.lower ~what:"Collective.Exec.run" ~clamp_ranks ~edge_faults
      ~bidirectional:spec.bidirectional ~ranks:spec.ranks
      ~chunk_words:spec.chunk_words ~p ~faulty ~rings
  in
  let cycles = c.Compile.cycles in
  let nrings = c.Compile.nrings in
  let length = c.Compile.length in
  let ranks = c.Compile.ranks in
  let bounds = c.Compile.bounds in
  let cw = spec.chunk_words in
  let ph = Schedule.phases spec.op ~ranks in
  (* Flat payload arena: rank r of ring j owns the [ranks·cw]-word
     slice at [((j·ranks) + r)·ranks·cw].  A step writes only the
     stepped node's own slice — the ?domains safety contract. *)
  (* [create], not [make]: the fill below writes every word. *)
  let buf = Fa.create (nrings * ranks * ranks * cw) in
  let base_of ~ring ~rank = ((ring * ranks) + rank) * ranks * cw in
  for j = 0 to nrings - 1 do
    for r = 0 to ranks - 1 do
      let base = base_of ~ring:j ~rank:r in
      for ch = 0 to ranks - 1 do
        for w = 0 to cw - 1 do
          buf.{base + (ch * cw) + w} <-
            initial_word spec.op ~init ~ring:j ~rank:r ~chunk:ch ~word:w
        done
      done
    done
  done;
  (* Node → role tables, one pair of flat maps per ring (membership
     already validated by [Compile.lower]). *)
  let rank_of = Array.init nrings (fun _ -> Array.make p.W.size (-1)) in
  let next_of = Array.init nrings (fun _ -> Array.make p.W.size (-1)) in
  Array.iteri
    (fun j cycle ->
      Array.iteri
        (fun i v -> next_of.(j).(v) <- cycle.((i + 1) mod length))
        cycle;
      Array.iteri (fun r pos -> rank_of.(j).(cycle.(pos)) <- r) bounds)
    cycles;
  (* Topology: the implicit De Bruijn edge set, materialized once for
     the simulator's neighbor check; symmetric closure under
     bidirectional traffic; faulty links removed through the O(1)
     packed-key probe (so a ring crossing one would be caught as an
     illegal send, not silently excused). *)
  let topology =
    let g = Graphlib.Digraph.of_successors p.W.size (W.successors p) in
    let g = if spec.bidirectional then Graphlib.Digraph.undirected_view g else g in
    if Compile.Fault_probe.is_empty c.Compile.probe then g
    else
      Graphlib.Digraph.remove_edges g (fun (u, v) ->
          Compile.Fault_probe.mem c.Compile.probe u v)
  in
  (* One send: copy the chunk out of the rank's slice into a pooled
     array, so later slice writes never mutate in-flight payloads. *)
  let mk_send st ~next ~ring ~base ~phase ~rank =
    let chunk = Schedule.send_chunk ~ranks ~rank ~phase in
    let data =
      match st.free with
      | d :: rest ->
          st.free <- rest;
          d
      | [] ->
          (Array.make cw 0
          [@lint.allow
            "R7 pool miss: at most two cw-word arrays per rank over the whole \
             run, recycled through st.free thereafter"])
    in
    for w = 0 to cw - 1 do
      data.(w) <- buf.{base + (chunk * cw) + w}
    done;
    ((next, { ring; chunk; data })
    [@lint.allow
      "R7 the (dest, message) pair and the message record are the simulator's \
       wire format — one fixed-size box pair per send"])
  [@@lint.hot]
  in
  let proto =
    {
      Netsim.Simulator.initial =
        (fun v ->
          let roles =
            Array.init nrings (fun j ->
                let r = rank_of.(j).(v) in
                if r >= 0 then
                  Rank
                    {
                      rank = r;
                      next = next_of.(j).(v);
                      base = base_of ~ring:j ~rank:r;
                      phase = 0;
                    }
                else if next_of.(j).(v) >= 0 then Relay { next = next_of.(j).(v) }
                else Off)
          in
          { started = false; roles; free = [] });
      step =
        ((fun ~round:_ _v st inbox ->
           let sends =
             (ref []
             [@lint.allow
               "R7 send-list accumulator: one cell per step, demanded by the \
                (state, sends) simulator API"])
           in
           (if not st.started then begin
              st.started <- true;
              Array.iteri
                (fun j role ->
                  match role with
                  | Rank rk ->
                      sends :=
                        mk_send st ~next:rk.next ~ring:j ~base:rk.base ~phase:0
                          ~rank:rk.rank
                        :: !sends
                  | Relay _ | Off -> ())
                st.roles
            end)
           [@lint.allow
             "R7 start-up branch: runs once per node before the steady state, \
              off the hot path"];
           List.iter
             ((fun (_src, m) ->
                match st.roles.(m.ring) with
                | Relay { next } ->
                    sends :=
                      (((next, m) :: !sends)
                      [@lint.allow
                        "R7 relay hop: the forwarded message is reused as-is; \
                         the cons and address pair are the send-list API"])
                | Rank rk ->
                    let red = Schedule.reduces spec.op ~ranks ~phase:rk.phase in
                    let off = rk.base + (m.chunk * cw) in
                    for w = 0 to cw - 1 do
                      buf.{off + w} <-
                        (if red then buf.{off + w} + m.data.(w) else m.data.(w))
                    done;
                    (* The payload has been folded into the arena; the
                       array is ours to recycle (the next send reads the
                       arena, not the consumed message). *)
                    st.free <-
                      ((m.data :: st.free)
                      [@lint.allow
                        "R7 recycling-pool push: one cons per consumed message \
                         saves allocating a cw-word payload array"]);
                    rk.phase <- rk.phase + 1;
                    if rk.phase < ph then
                      sends :=
                        ((mk_send st ~next:rk.next ~ring:m.ring ~base:rk.base
                            ~phase:rk.phase ~rank:rk.rank
                          :: !sends)
                        [@lint.allow
                          "R7 the per-phase send must enter the round's \
                           send list; one cons per phase advance"])
                | Off -> ())
             [@lint.allow
               "R7 inbox traversal closure: one block per step capturing this \
                step's state, amortized over the per-hop word copies"])
             inbox;
           ((st, List.rev !sends)
           [@lint.allow
             "R7 the (state, sends) return pair and send-order reversal are \
              the simulator contract; both are proportional to this step's \
              sends, not the payload"]))
        [@lint.hot]);
      wants_step = (fun st -> not st.started);
    }
  in
  let res =
    Netsim.Simulator.run ~domains
      ~payload_words:(fun m -> Array.length m.data)
      ~topology ~faulty proto
  in
  (* Exact word-for-word verification against the closed-form final
     arena. *)
  let verified, checksum =
    verify_arena spec.op ~init ~rings:nrings ~ranks ~chunk_words:cw buf
  in
  (* Arithmetic congestion accounting: each ring edge carries exactly
     [segment_messages] messages, so the peak directed-link load is
     that figure times the deepest ring-sharing of any edge
     ([Compile.max_edge_share], counted per De Bruijn edge slot). *)
  let msgs = Schedule.segment_messages spec.op ~ranks in
  let max_share = Compile.max_edge_share c in
  let payload_words = nrings * Schedule.payload_words spec.op ~ranks ~chunk_words:cw in
  let report =
    {
      rings = nrings;
      ranks;
      phases = ph;
      rounds = res.Netsim.Simulator.rounds;
      delivered = res.Netsim.Simulator.delivered;
      wire_words = res.Netsim.Simulator.payload_total;
      payload_words;
      bytes_per_step =
        8.0 *. float_of_int payload_words
        /. float_of_int (max 1 res.Netsim.Simulator.rounds);
      max_link_load = max_share * msgs;
      max_port_load = res.Netsim.Simulator.max_port_load;
      verified;
      checksum;
    }
  in
  (report, buf)

let run ?(domains = 1) ?(edge_faults = []) ?(clamp_ranks = false)
    ?(init = default_init) ~p ~faulty ~rings spec =
  fst
    (run_internal ~domains ~edge_faults ~clamp_ranks ~init ~p ~faulty ~rings
       spec)

let run_with_payload ?(domains = 1) ?(edge_faults = []) ?(clamp_ranks = false)
    ?(init = default_init) ~p ~faulty ~rings spec =
  let report, buf =
    run_internal ~domains ~edge_faults ~clamp_ranks ~init ~p ~faulty ~rings
      spec
  in
  (report, Fa.to_array buf)
