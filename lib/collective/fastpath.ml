module Fa = Graphlib.Flatarr

let run_internal ~edge_faults ~clamp_ranks ~init ~payload ~p ~faulty ~rings
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
  let prefix, owned_only =
    match op with
    | Reduce_scatter -> (true, false)
    | All_gather -> (false, true)
    | Allreduce -> (false, false)
  in
  (* Relays never transform payload, so in phase p chunk c moves only
     from rank (c+p) mod R to rank (c+p+1) mod R — the one rank whose
     [Schedule.recv_chunk] is c in that phase.  Each (ring, chunk)
     column is therefore an independent chain, run start to finish in
     [col] (rank r's words at r·cw): the same words, in the same phase
     order, as the netsim reference executor's arena column, without
     the arena. *)
  let col = Fa.create (ranks * cw) in
  (* [acc] sums the fill's values in wave order from rank c, so after
     the fill it holds the allreduce total or the all-gather owner
     word; under reduce-scatter [want] keeps the prefix it held as the
     wave passed each rank, which is what that rank ends with. *)
  let acc = Fa.create cw in
  let want = Fa.create (if prefix then ranks * cw else 0) in
  (* The rings·R²·cw snapshot, ring-major, then rank-major, then
     chunk-major; [run] leaves it empty. *)
  let snapshot = if payload then Array.make (nrings * ranks * ranks * cw) 0 else [||] in
  let ok = ref true and sum = ref 0 in
  (for j = 0 to nrings - 1 do
     for ch = 0 to ranks - 1 do
       (* Fill in wave order, one [init] call per initial word, folding
          each value into the closed form as it is written. *)
       Fa.fill acc 0;
       for k = 0 to ranks - 1 do
         let r = (ch + k) mod ranks in
         let base = r * cw in
         if owned_only && k > 0 then
           for w = 0 to cw - 1 do
             col.{base + w} <- 0
           done
         else
           for w = 0 to cw - 1 do
             let v = init ~ring:j ~rank:r ~chunk:ch ~word:w in
             col.{base + w} <- v;
             acc.{w} <- acc.{w} + v
           done;
         if prefix then
           for w = 0 to cw - 1 do
             want.{base + w} <- acc.{w}
           done
       done;
       for phase = 0 to ph - 1 do
         let src = ((ch + phase) mod ranks) * cw in
         let dst = ((ch + phase + 1) mod ranks) * cw in
         if Schedule.reduces op ~ranks ~phase then
           for w = 0 to cw - 1 do
             col.{dst + w} <- col.{dst + w} + col.{src + w}
           done
         else
           for w = 0 to cw - 1 do
             col.{dst + w} <- col.{src + w}
           done
       done;
       (* Exact check of every word against the closed form, and the
          checksum: the reference executor's arena verdict and sum for
          a pure [init]. *)
       for r = 0 to ranks - 1 do
         let base = r * cw in
         let form = if prefix then want else acc in
         let fbase = if prefix then base else 0 in
         for w = 0 to cw - 1 do
           let got = col.{base + w} in
           sum := !sum + got;
           if got <> form.{fbase + w} then ok := false
         done;
         if payload then begin
           let off = ((((j * ranks) + r) * ranks) + ch) * cw in
           for w = 0 to cw - 1 do
             snapshot.(off + w) <- col.{base + w}
           done
         end
       done
     done
   done)
  [@lint.hot];
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
      verified = !ok;
      checksum = !sum;
    }
  in
  (report, snapshot)

let run ?(edge_faults = []) ?(clamp_ranks = false) ?(init = Exec.default_init)
    ~p ~faulty ~rings spec =
  fst
    (run_internal ~edge_faults ~clamp_ranks ~init ~payload:false ~p ~faulty
       ~rings spec)

let run_with_payload ?(edge_faults = []) ?(clamp_ranks = false)
    ?(init = Exec.default_init) ~p ~faulty ~rings spec =
  run_internal ~edge_faults ~clamp_ranks ~init ~payload:true ~p ~faulty ~rings
    spec
