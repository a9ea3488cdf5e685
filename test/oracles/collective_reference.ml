module W = Debruijn.Word
module Fa = Graphlib.Flatarr
module Compile = Collective.Compile
module Schedule = Collective.Schedule
module Exec = Collective.Exec

module Fault_probe = struct
  (* [table = None] is the common fault-free case: [mem] must cost one
     branch, not a hash probe, because [topology] runs it per message. *)
  type t = { size : int; table : (int, unit) Hashtbl.t option }

  let make ~size ~bidirectional faults =
    let in_range v = v >= 0 && v < size in
    let live = List.filter (fun (u, v) -> in_range u && in_range v) faults in
    match live with
    | [] -> { size; table = None }
    | _ ->
        let h = Hashtbl.create ((2 * List.length live) + 1) in
        List.iter
          (fun (u, v) ->
            Hashtbl.replace h ((u * size) + v) ();
            if bidirectional then Hashtbl.replace h ((v * size) + u) ())
          live;
        { size; table = Some h }

  let mem t u v =
    match t.table with
    | None -> false
    | Some h -> Hashtbl.mem h ((u * t.size) + v)

  let is_empty t = match t.table with None -> true | Some _ -> false
end

(* Per-node, per-ring role.  [base] is the word offset of the rank's
   buffer slice in the run's flat payload arena; [phase] counts the
   receives completed, which is also the index of the next send. *)
type role =
  | Off
  | Relay of { next : int }
  | Rank of { rank : int; next : int; base : int; mutable phase : int }

(* [free] recycles the chunk arrays of consumed receives into the
   node's own later sends — each rank allocates at most two [cw]-word
   arrays over the whole run instead of one per phase. *)
type nstate = { roles : role array; mutable free : int array list }

type msg = { ring : int; chunk : int; data : int array }

(* The [op] test sits outside the word loops, which call [init]
   directly. *)
let initial_arena op ~init ~rings ~ranks ~chunk_words:cw =
  (* [create], not [make]: the fill writes every word. *)
  let buf = Fa.create (rings * ranks * ranks * cw) in
  let owned_only =
    match (op : Schedule.op) with
    | All_gather -> true
    | Reduce_scatter | Allreduce -> false
  in
  (for j = 0 to rings - 1 do
     for r = 0 to ranks - 1 do
       for ch = 0 to ranks - 1 do
         let base = ((((j * ranks) + r) * ranks) + ch) * cw in
         if owned_only && ch <> r then
           for w = 0 to cw - 1 do
             buf.{base + w} <- 0
           done
         else
           for w = 0 to cw - 1 do
             buf.{base + w} <- init ~ring:j ~rank:r ~chunk:ch ~word:w
           done
       done
     done
   done)
  [@lint.hot];
  buf

(* The closed forms of the .mli hold because relays never transform
   payload: chunk c only ever meets the ranks' own init words, and the
   reduce-scatter wave that starts at rank c has folded in k + 1 ranks
   when it lands at rank c + k.  So per (ring, chunk) one cw-word
   accumulator visits the R ranks' runs in wave order, comparing as it
   goes — each arena word is read once. *)
let verify_arena op ~init ~rings ~ranks ~chunk_words:cw buf =
  if Fa.length buf <> rings * ranks * ranks * cw then
    invalid_arg "Oracles.Collective_reference.verify_arena: arena size";
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

let topology ~(p : W.params) ~bidirectional probe =
  let faulted = not (Fault_probe.is_empty probe) in
  let mem_edge u v =
    (W.is_edge p u v || (bidirectional && W.is_edge p v u))
    && not (faulted && Fault_probe.mem probe u v)
  in
  { Netsim.Simulator.nodes = p.W.size; mem_edge }

let run_internal ~edge_faults ~clamp_ranks ~init ~p ~faulty ~rings spec =
  let c =
    Compile.lower ~what:"Oracles.Collective_reference.run" ~clamp_ranks ~edge_faults
      ~bidirectional:spec.Exec.bidirectional ~ranks:spec.Exec.ranks
      ~chunk_words:spec.Exec.chunk_words ~p ~faulty ~rings
  in
  let cycles = c.Compile.cycles in
  let nrings = c.Compile.nrings in
  let length = c.Compile.length in
  let ranks = c.Compile.ranks in
  let bounds = Schedule.boundaries ~ranks ~length in
  let cw = spec.Exec.chunk_words in
  let ph = Schedule.phases spec.Exec.op ~ranks in
  (* Flat payload arena: rank r of ring j owns the [ranks·cw]-word
     slice at [((j·ranks) + r)·ranks·cw]; a step writes only the
     stepped node's own slice. *)
  let buf = initial_arena spec.Exec.op ~init ~rings:nrings ~ranks ~chunk_words:cw in
  let base_of ~ring ~rank = ((ring * ranks) + rank) * ranks * cw in
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
  let states =
    Array.init p.W.size (fun v ->
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
        { roles; free = [] })
  in
  (* One rank send: copy the chunk out of the rank's slice into a
     pooled array, so later slice writes never mutate in-flight
     payloads. *)
  let send_chunk st ~send ~ring ~rank ~next ~base ~phase =
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
    send next
      ({ ring; chunk; data }
      [@lint.allow "R7 one message record per rank send; relays forward it as-is"])
  [@@lint.hot]
  in
  (* Round 0 steps every live node: each rank sends its phase-0 chunk.
     From then on a node reacts to its inbox only. *)
  let step ~round v inbox ~send =
    let st = states.(v) in
    if round = 0 then
      for j = 0 to nrings - 1 do
        match st.roles.(j) with
        | Rank { rank; next; base; _ } ->
            send_chunk st ~send ~ring:j ~rank ~next ~base ~phase:0
        | Relay _ | Off -> ()
      done;
    for i = 0 to Netsim.Simulator.Inbox.length inbox - 1 do
      let m = Netsim.Simulator.Inbox.msg inbox i in
      match st.roles.(m.ring) with
      | Relay { next } -> send next m
      | Rank rk ->
          let red = Schedule.reduces spec.Exec.op ~ranks ~phase:rk.phase in
          let off = rk.base + (m.chunk * cw) in
          for w = 0 to cw - 1 do
            buf.{off + w} <- (if red then buf.{off + w} + m.data.(w) else m.data.(w))
          done;
          (* The payload has been folded into the arena; the array is
             ours to recycle (the next send reads the arena, not the
             consumed message). *)
          st.free <-
            ((m.data :: st.free)
            [@lint.allow
              "R7 recycling-pool push: one cons per consumed message saves \
               allocating a cw-word payload array"]);
          rk.phase <- rk.phase + 1;
          if rk.phase < ph then
            send_chunk st ~send ~ring:m.ring ~rank:rk.rank ~next:rk.next
              ~base:rk.base ~phase:rk.phase
      | Off -> ()
    done
  [@@lint.hot]
  in
  let probe = Fault_probe.make ~size:p.W.size ~bidirectional:spec.Exec.bidirectional edge_faults in
  let res =
    Netsim.Simulator.run
      ~payload_words:(fun m -> Array.length m.data)
      ~topology:(topology ~p ~bidirectional:spec.Exec.bidirectional probe)
      ~faulty
      { Netsim.Simulator.step; wants_step = (fun _ -> false) }
  in
  (* Exact word-for-word verification against the closed-form final
     arena. *)
  let verified, checksum =
    verify_arena spec.Exec.op ~init ~rings:nrings ~ranks ~chunk_words:cw buf
  in
  (* Arithmetic congestion accounting: each ring edge carries exactly
     [segment_messages] messages, so the peak directed-link load is
     that figure times the deepest ring-sharing of any edge
     ([Compile.max_edge_share], read off the code table). *)
  let msgs = Schedule.segment_messages spec.Exec.op ~ranks in
  let max_share = Compile.max_edge_share c in
  let payload_words = nrings * Schedule.payload_words spec.Exec.op ~ranks ~chunk_words:cw in
  let report =
    {
      Exec.rings = nrings;
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

let run ?(edge_faults = []) ?(clamp_ranks = false) ?(init = Exec.default_init) ~p
    ~faulty ~rings spec =
  fst
    (run_internal ~edge_faults ~clamp_ranks ~init ~p ~faulty ~rings
       spec)

let run_with_payload ?(edge_faults = []) ?(clamp_ranks = false)
    ?(init = Exec.default_init) ~p ~faulty ~rings spec =
  let report, buf =
    run_internal ~edge_faults ~clamp_ranks ~init ~p ~faulty ~rings
      spec
  in
  (report, Fa.to_array buf)
