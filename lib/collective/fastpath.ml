module Fa = Graphlib.Flatarr
module Sched = Graphlib.Sched

let run_internal ~domains ~edge_faults ~clamp_ranks ~init ~p ~faulty ~rings
    (spec : Exec.spec) =
  let op = spec.Exec.op in
  let cw = spec.Exec.chunk_words in
  let c =
    Compile.lower ~what:"Collective.Fastpath.run" ~clamp_ranks ~edge_faults
      ~bidirectional:spec.Exec.bidirectional ~ranks:spec.Exec.ranks
      ~chunk_words:cw ~p ~faulty ~rings
  in
  let nrings = c.Compile.nrings in
  let length = c.Compile.length in
  let ranks = c.Compile.ranks in
  let ph = Schedule.phases op ~ranks in
  (* Same flat payload arena, layout and initial contents as
     [Exec.run], so the two executors' final arenas can be compared
     word for word. *)
  let buf = Exec.initial_arena op ~init ~rings:nrings ~ranks ~chunk_words:cw in
  let items = nrings * ranks in
  Sched.with_pool ~domains (fun pool ->
    let kchunk = max 1 (items / (8 * Sched.size pool)) in
    (* The schedule as an array kernel: in phase p, the (ring j,
       rank r) work item moves chunk (r−p−1) mod R from its
       predecessor's slice into its own, reducing in place during
       the reduce-scatter phases.  The predecessor's phase-p write
       lands in chunk (r−p−2) mod R — a different chunk, since
       consecutive chunks differ by 1 mod R ≥ 2 — so every phase's
       work items touch pairwise disjoint destinations and read
       phase-stable sources: any (domains, chunk) split commits
       bit-identical words, with zero allocation per hop. *)
    for phase = 0 to ph - 1 do
      let red = Schedule.reduces op ~ranks ~phase in
      Sched.parallel_for pool ~chunk:kchunk ~lo:0 ~hi:items
        ((fun _ci lo hi ->
          for item = lo to hi - 1 do
            let j = item / ranks in
            let r = item mod ranks in
            let chunk = Schedule.recv_chunk ~ranks ~rank:r ~phase in
            let pred = if r = 0 then ranks - 1 else r - 1 in
            (* Slice offsets written out: every destination index is
               then a visible function of the chunk-range parameters,
               so R6 verifies the kernel with no annotation. *)
            let src = (((j * ranks) + pred) * ranks * cw) + (chunk * cw) in
            let dst = (((j * ranks) + r) * ranks * cw) + (chunk * cw) in
            if red then
              for w = 0 to cw - 1 do
                buf.{dst + w} <- buf.{dst + w} + buf.{src + w}
              done
            else
              for w = 0 to cw - 1 do
                buf.{dst + w} <- buf.{src + w}
              done
          done)
        [@lint.hot])
    done);
  (* Exact word-for-word verification against the closed-form final
     arena — the same checker, hence the same checksum, as [Exec.run]. *)
  let verified, checksum =
    Exec.verify_arena op ~init ~rings:nrings ~ranks ~chunk_words:cw buf
  in
  (* Counters in closed form, matching the simulator's accounting:
     every phase moves one chunk across all L edges of every ring
     (each hop is one delivery of one cw-word message), rounds come
     from the self-timed arrival recurrence, and link sharing and port
     load from the code table. *)
  let delivered = nrings * ph * length in
  let wire_words = delivered * cw in
  let rounds = Compile.completion_rounds c ~phases:ph in
  let msgs = Schedule.segment_messages op ~ranks in
  let max_share = Compile.max_edge_share c in
  let payload_words = nrings * Schedule.payload_words op ~ranks ~chunk_words:cw in
  let report =
    {
      Exec.rings = nrings;
      ranks;
      phases = ph;
      rounds;
      delivered;
      wire_words;
      payload_words;
      bytes_per_step =
        8.0 *. float_of_int payload_words /. float_of_int (max 1 rounds);
      max_link_load = max_share * msgs;
      max_port_load = Compile.max_port_load c ~phases:ph;
      verified;
      checksum;
    }
  in
  (report, buf)

let run ?(domains = 1) ?(edge_faults = []) ?(clamp_ranks = false)
    ?(init = Exec.default_init) ~p ~faulty ~rings spec =
  fst
    (run_internal ~domains ~edge_faults ~clamp_ranks ~init ~p ~faulty ~rings
       spec)

let run_with_payload ?(domains = 1) ?(edge_faults = []) ?(clamp_ranks = false)
    ?(init = Exec.default_init) ~p ~faulty ~rings spec =
  let report, buf =
    run_internal ~domains ~edge_faults ~clamp_ranks ~init ~p ~faulty ~rings
      spec
  in
  (report, Fa.to_array buf)
