module W = Debruijn.Word
module Fa = Graphlib.Flatarr
module Sched = Graphlib.Sched

(* Nodes per chunk of the port-load sweep: big enough that the
   per-chunk scratch arrays amortize to nothing, small enough to
   load-balance across domains. *)
let port_chunk = 4096

(* Peak sends by one node in one round, in closed form.

   Every ring membership of a node — position i of ring j, i.e. offset
   h into rank segment [seg] — emits exactly [phases] sends, the
   phase-p send leaving at round h + Σ_{q=0}^{p−1} len[(seg−1−q) mod R]
   (the phase-0 wave reaches offset h at round h; each later phase is
   delayed by the arrival of the previous one, which crosses the
   predecessor segments in order).  The port load of the node at some
   round is the number of its memberships whose send-round sequences
   collide there, so the peak is the deepest multi-way collision.

   A single driven ring can never collide with itself (one membership
   per node), and when every segment has the same length the sequences
   are h + p·len — two memberships collide iff their offsets are equal
   (|h−h'| < len forces h = h'), which is a plain equality count.  The
   general k-way merge only runs for non-uniform boundaries, and only
   on nodes with more memberships than the best collision found so
   far. *)
let max_port_load pool (c : Compile.t) ~phases =
  if c.Compile.nrings = 1 then 1
  else begin
    let size = c.Compile.p.W.size in
    let nrings = c.Compile.nrings in
    let length = c.Compile.length in
    let ranks = c.Compile.ranks in
    let seg_len = c.Compile.seg_len in
    let seg_pref = c.Compile.seg_pref in
    (* CSR of (segment, offset) memberships per node. *)
    let heads = Fa.make (size + 1) 0 in
    Array.iter
      (fun cycle ->
        Array.iter (fun v -> heads.{v + 1} <- heads.{v + 1} + 1) cycle)
      c.Compile.cycles;
    for v = 1 to size do
      heads.{v} <- heads.{v} + heads.{v - 1}
    done;
    let ent_seg = Fa.create (nrings * length) in
    let ent_off = Fa.create (nrings * length) in
    let cursor = Fa.create size in
    for v = 0 to size - 1 do
      cursor.{v} <- heads.{v}
    done;
    Array.iter
      (fun cycle ->
        let seg = ref 0 in
        for i = 0 to length - 1 do
          while !seg < ranks - 1 && i >= seg_pref.{!seg + 1} do
            incr seg
          done;
          let v = cycle.(i) in
          let idx = cursor.{v} in
          cursor.{v} <- idx + 1;
          ent_seg.{idx} <- !seg;
          ent_off.{idx} <- i - seg_pref.{!seg}
        done)
      c.Compile.cycles;
    let uniform =
      let l0 = seg_len.{0} in
      let u = ref true in
      for r = 1 to ranks - 1 do
        if seg_len.{r} <> l0 then u := false
      done;
      !u
    in
    let nchunks = (size + port_chunk - 1) / port_chunk in
    let maxima = Array.make nchunks 1 in
    Sched.parallel_for pool ~chunk:port_chunk ~lo:0 ~hi:size
      (fun ci lo hi ->
        let best = ref 1 in
        let vals = Array.make nrings 0 in
        let ptr = Array.make nrings 0 in
        let nxt = Array.make nrings 0 in
        for v = lo to hi - 1 do
          let e0 = heads.{v} and e1 = heads.{v + 1} in
          let deg = e1 - e0 in
          (* A node's collision depth is at most its membership count. *)
          if deg > !best then
            if uniform then
              for a = e0 to e1 - 1 do
                let cnt = ref 0 in
                for b = e0 to e1 - 1 do
                  if ent_off.{b} = ent_off.{a} then incr cnt
                done;
                if !cnt > !best then best := !cnt
              done
            else begin
              let live = ref deg in
              for e = 0 to deg - 1 do
                ptr.(e) <- 0;
                vals.(e) <- ent_off.{e0 + e};
                let s = ent_seg.{e0 + e} in
                nxt.(e) <- (if s = 0 then ranks - 1 else s - 1)
              done;
              while !live > 0 do
                let mn = ref max_int in
                for e = 0 to deg - 1 do
                  if ptr.(e) < phases && vals.(e) < !mn then mn := vals.(e)
                done;
                let cnt = ref 0 in
                for e = 0 to deg - 1 do
                  if ptr.(e) < phases && vals.(e) = !mn then begin
                    incr cnt;
                    ptr.(e) <- ptr.(e) + 1;
                    if ptr.(e) = phases then decr live
                    else begin
                      vals.(e) <- vals.(e) + seg_len.{nxt.(e)};
                      nxt.(e) <- (if nxt.(e) = 0 then ranks - 1 else nxt.(e) - 1)
                    end
                  end
                done;
                if !cnt > !best then best := !cnt
              done
            end
        done;
        maxima.(ci) <- !best);
    Array.fold_left max 1 maxima
  end

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
     [Exec.run] — rank r of ring j owns the [ranks·cw]-word slice at
     [((j·ranks) + r)·ranks·cw] — so the two executors' final arenas
     can be compared word for word. *)
  (* [create], not [make]: the fill below writes every word. *)
  let buf = Fa.create (nrings * ranks * ranks * cw) in
  let base_of ~ring ~rank = ((ring * ranks) + rank) * ranks * cw in
  for j = 0 to nrings - 1 do
    for r = 0 to ranks - 1 do
      let base = base_of ~ring:j ~rank:r in
      for ch = 0 to ranks - 1 do
        for w = 0 to cw - 1 do
          buf.{base + (ch * cw) + w} <-
            Exec.initial_word op ~init ~ring:j ~rank:r ~chunk:ch ~word:w
        done
      done
    done
  done;
  let items = nrings * ranks in
  let port =
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
                (* [base_of] inlined: every destination index is then
                   a visible function of the chunk-range parameters,
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
        done;
        max_port_load pool c ~phases:ph)
  in
  (* Exact word-for-word verification against the closed-form final
     arena — the same checker, hence the same checksum, as [Exec.run]. *)
  let verified, checksum =
    Exec.verify_arena op ~init ~rings:nrings ~ranks ~chunk_words:cw buf
  in
  (* Counters in closed form, matching the simulator's accounting:
     every phase moves one chunk across all L edges of every ring
     (each hop is one delivery of one cw-word message), rounds come
     from the self-timed arrival recurrence, and link sharing from the
     per-slot edge counts. *)
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
      max_port_load = port;
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
