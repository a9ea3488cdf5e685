(* Tests for lib/collective: the arithmetic ring-collective schedule,
   its rank-space reference executor, and the network execution over
   embedded rings of B(d,n). *)

module S = Collective.Schedule
module E = Collective.Exec
module W = Debruijn.Word
module Co = Dhc.Compose
module P = Dhc.Psi
module Str = Dhc.Stream

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* A deterministic but irregular integer payload. *)
let init ~rank ~chunk ~word = 1 + (((rank * 37) + (chunk * 11) + word) mod 53)

(* ------------------------------------------------------------------ *)
(* Schedule arithmetic *)

let test_schedule_indices () =
  List.iter
    (fun ranks ->
      List.iter
        (fun op ->
          let ph = S.phases op ~ranks in
          check_int "phase count"
            (match op with S.Allreduce -> 2 * (ranks - 1) | _ -> ranks - 1)
            ph;
          for phase = 0 to ph - 1 do
            for r = 0 to ranks - 1 do
              (* What r's predecessor sends in this phase is exactly what
                 r receives. *)
              check_int "recv = predecessor's send"
                (S.send_chunk ~ranks ~rank:((r - 1 + ranks) mod ranks) ~phase)
                (S.recv_chunk ~ranks ~rank:r ~phase)
            done;
            (* The ranks send pairwise distinct chunks each phase. *)
            let sent =
              List.init ranks (fun r -> S.send_chunk ~ranks ~rank:r ~phase)
            in
            check_int "all chunks in flight" ranks
              (List.length (List.sort_uniq Int.compare sent))
          done)
        [ S.Reduce_scatter; S.All_gather; S.Allreduce ])
    [ 2; 3; 5; 8 ]

let test_schedule_boundaries () =
  let b = S.boundaries ~ranks:4 ~length:10 in
  Alcotest.(check (array int)) "evenly spread" [| 0; 2; 5; 7 |] b;
  let b = S.boundaries ~ranks:5 ~length:5 in
  Alcotest.(check (array int)) "dense ring" [| 0; 1; 2; 3; 4 |] b;
  Alcotest.check_raises "ranks > length rejected"
    (Invalid_argument "Schedule.boundaries: ranks > ring length") (fun () ->
      ignore (S.boundaries ~ranks:6 ~length:5))

(* The rank-space executor against closed-form expectations: the
   sequential fold is the ground truth for every reducing chunk. *)
let test_simulate_oracle () =
  List.iter
    (fun (ranks, cw) ->
      let fold ~chunk ~word =
        let acc = ref 0 in
        for r = 0 to ranks - 1 do
          acc := !acc + init ~rank:r ~chunk ~word
        done;
        !acc
      in
      (* Allreduce: every rank ends with the full reduced vector. *)
      let buf = S.simulate S.Allreduce ~ranks ~chunk_words:cw ~init in
      for r = 0 to ranks - 1 do
        for c = 0 to ranks - 1 do
          for w = 0 to cw - 1 do
            check_int "allreduce word" (fold ~chunk:c ~word:w)
              buf.(r).((c * cw) + w)
          done
        done
      done;
      (* Reduce-scatter: rank r owns the fully reduced owned_chunk. *)
      let buf = S.simulate S.Reduce_scatter ~ranks ~chunk_words:cw ~init in
      for r = 0 to ranks - 1 do
        let c = S.owned_chunk ~ranks ~rank:r in
        for w = 0 to cw - 1 do
          check_int "reduce-scatter owned word" (fold ~chunk:c ~word:w)
            buf.(r).((c * cw) + w)
        done
      done;
      (* All-gather: every rank ends with chunk c = rank c's own data. *)
      let buf = S.simulate S.All_gather ~ranks ~chunk_words:cw ~init in
      for r = 0 to ranks - 1 do
        for c = 0 to ranks - 1 do
          for w = 0 to cw - 1 do
            check_int "all-gather word"
              (init ~rank:c ~chunk:c ~word:w)
              buf.(r).((c * cw) + w)
          done
        done
      done)
    [ (2, 1); (3, 2); (8, 3) ]

(* Reduce-scatter on every chunk, not just the owned one: the wave
   that starts at rank c has folded in ranks c … c+k when it lands at
   rank c + k, so that rank holds the prefix sum over those k + 1
   ranks — the closed form Exec.verify_arena checks. *)
let test_reduce_scatter_prefix () =
  List.iter
    (fun (ranks, cw) ->
      let buf = S.simulate S.Reduce_scatter ~ranks ~chunk_words:cw ~init in
      for c = 0 to ranks - 1 do
        for w = 0 to cw - 1 do
          let acc = ref 0 in
          for k = 0 to ranks - 1 do
            let r = (c + k) mod ranks in
            acc := !acc + init ~rank:r ~chunk:c ~word:w;
            check_int
              (Printf.sprintf "R=%d chunk %d at rank %d" ranks c r)
              !acc
              buf.(r).((c * cw) + w)
          done
        done
      done)
    [ (2, 1); (3, 2); (5, 1); (8, 3) ]

(* ------------------------------------------------------------------ *)
(* Network execution *)

let hamiltonian_ring ~d ~n =
  Str.to_nodes (List.hd (Co.disjoint_streams_upto ~d ~n ~k:1))

let run_ring ?(bidirectional = false) ?rings ~d ~n ~ranks ~chunk_words op =
  let p = W.params ~d ~n in
  let rings =
    match rings with Some r -> r | None -> [ hamiltonian_ring ~d ~n ]
  in
  E.run ~p
    ~faulty:(fun _ -> false)
    ~rings
    { E.op; ranks; chunk_words; bidirectional }

let test_exec_verifies () =
  List.iter
    (fun op ->
      List.iter
        (fun (d, n, ranks, cw) ->
          let p = W.params ~d ~n in
          let r = run_ring ~d ~n ~ranks ~chunk_words:cw op in
          check_bool "exact verification" true r.E.verified;
          (* Each of the [phases] chunk waves crosses every ring edge
             exactly once end to end: delivered = phases · L · rings. *)
          check_int "delivered = phases x L x rings"
            (r.E.phases * p.W.size * r.E.rings)
            r.E.delivered;
          check_int "wire accounting" (r.E.delivered * cw) r.E.wire_words;
          check_int "edge-disjoint load" r.E.phases r.E.max_link_load)
        [ (2, 4, 4, 2); (2, 5, 8, 1); (3, 3, 5, 3) ])
    [ S.Reduce_scatter; S.All_gather; S.Allreduce ]

let test_exec_striped_and_bidir () =
  let d = 4 and n = 3 in
  let k = P.psi d in
  let rings = List.map Str.to_nodes (Co.disjoint_streams_upto ~d ~n ~k) in
  let r1 = run_ring ~d ~n ~ranks:8 ~chunk_words:2 S.Allreduce in
  let rk = run_ring ~rings ~d ~n ~ranks:8 ~chunk_words:2 S.Allreduce in
  check_bool "striped verified" true rk.E.verified;
  check_int "k rings" k rk.E.rings;
  check_int "same rounds as one ring" r1.E.rounds rk.E.rounds;
  check_int "k x payload" (k * r1.E.payload_words) rk.E.payload_words;
  check_bool "k x goodput" true
    (rk.E.bytes_per_step > 0.99 *. float_of_int k *. r1.E.bytes_per_step);
  let rb =
    run_ring ~bidirectional:true ~rings ~d ~n ~ranks:8 ~chunk_words:2 S.Allreduce
  in
  check_bool "bidirectional verified" true rb.E.verified;
  check_int "both directions" (2 * k) rb.E.rings

(* The seed-era name for the striped allreduce's bit-identity pin: the
   netsim executor against the compiled one, report and final arena. *)
let test_exec_domains_bit_identical () =
  let d = 4 and n = 3 in
  let p = W.params ~d ~n in
  let rings = List.map Str.to_nodes (Co.disjoint_streams_upto ~d ~n ~k:3) in
  let spec = { E.op = S.Allreduce; ranks = 8; chunk_words = 2; bidirectional = false } in
  let a, pa = E.run_with_payload ~p ~faulty:(fun _ -> false) ~rings spec in
  let b, pb = Collective.Fastpath.run_with_payload ~p ~faulty:(fun _ -> false) ~rings spec in
  check_bool "verified" true a.E.verified;
  check_int "same rounds" a.E.rounds b.E.rounds;
  check_int "same delivered" a.E.delivered b.E.delivered;
  check_int "same checksum" a.E.checksum b.E.checksum;
  check_bool "same arena" true (pa = pb)

(* The simulator's topology for a run is implicit: the De Bruijn edge
   test, reversed too under [bidirectional], minus the faulted links.
   It must be exactly the edge set the materialized construction gave,
   [remove_edges] over the (symmetric closure of) [Graph.b], on every
   ordered pair — including fault "links" that are not edges and
   faults naming nodes outside the network. *)
let test_exec_topology () =
  List.iter
    (fun (d, n, seed) ->
      let p = W.params ~d ~n in
      let size = p.W.size in
      let rng = Util.Rng.create seed in
      let faults =
        List.init 6 (fun i ->
            let u = Util.Rng.int rng size in
            if i = 5 then (u, size + 3)
            else if i mod 2 = 0 then (u, W.snoc p (W.suffix p u) (Util.Rng.int rng d))
            else (u, Util.Rng.int rng size))
      in
      List.iter
        (fun bidirectional ->
          let probe = Collective.Compile.Fault_probe.make ~size ~bidirectional faults in
          let g = Debruijn.Graph.b p in
          let g = if bidirectional then Graphlib.Digraph.undirected_view g else g in
          let g =
            Graphlib.Digraph.remove_edges g (fun (u, v) ->
                Collective.Compile.Fault_probe.mem probe u v)
          in
          let t = E.topology ~p ~bidirectional probe in
          check_int "node count" size t.Netsim.Simulator.nodes;
          for u = 0 to size - 1 do
            for v = 0 to size - 1 do
              if t.Netsim.Simulator.mem_edge u v <> Graphlib.Digraph.mem_edge g u v then
                Alcotest.failf "B(%d,%d) seed %d bidirectional %b: %d -> %d" d n seed
                  bidirectional u v
            done
          done)
        [ true; false ])
    [ (2, 5, 1); (2, 5, 2); (3, 3, 3); (4, 2, 4) ]

let test_exec_validation () =
  let d = 2 and n = 4 in
  let p = W.params ~d ~n in
  let ring = hamiltonian_ring ~d ~n in
  let spec = { E.op = S.Allreduce; ranks = 4; chunk_words = 1; bidirectional = false } in
  Alcotest.check_raises "no rings" (Invalid_argument "Collective.Exec.run: no rings")
    (fun () -> ignore (E.run ~p ~faulty:(fun _ -> false) ~rings:[] spec));
  Alcotest.check_raises "faulty node on ring"
    (Invalid_argument "Collective.Exec.run: ring touches a faulty node") (fun () ->
      ignore (E.run ~p ~faulty:(fun v -> v = ring.(3)) ~rings:[ ring ] spec));
  Alcotest.check_raises "unequal lengths"
    (Invalid_argument "Collective.Exec.run: rings of unequal length") (fun () ->
      ignore
        (E.run ~p ~faulty:(fun _ -> false)
           ~rings:[ ring; Array.sub ring 0 (Array.length ring - 2) ]
           spec));
  (* A ring crossing a dead link is rejected by the simulator itself —
     a clean run proves the rings avoid the fault set. *)
  let u = ring.(0) and v = ring.(1) in
  check_bool "illegal send on faulted link" true
    (match E.run ~edge_faults:[ (u, v) ] ~p ~faulty:(fun _ -> false) ~rings:[ ring ] spec with
    | exception Netsim.Simulator.Illegal_send _ -> true
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* Fastpath: the compiled executor against the netsim oracle *)

module F = Collective.Fastpath

let same_report (a : E.report) (b : E.report) =
  a.E.rings = b.E.rings && a.E.ranks = b.E.ranks && a.E.phases = b.E.phases
  && a.E.rounds = b.E.rounds
  && a.E.delivered = b.E.delivered
  && a.E.wire_words = b.E.wire_words
  && a.E.payload_words = b.E.payload_words
  && Float.equal a.E.bytes_per_step b.E.bytes_per_step
  && a.E.max_link_load = b.E.max_link_load
  && a.E.max_port_load = b.E.max_port_load
  && a.E.verified && b.E.verified
  && a.E.checksum = b.E.checksum

let same_payload a b =
  Array.length a = Array.length b && Array.for_all2 Int.equal a b

(* The FFC-embedded ring under node faults: relay-lengthened,
   non-uniform segments — the geometry the closed-form accounting has
   to get right. *)
let ffc_ring_and_faulty ~d ~n ~faults =
  let p = W.params ~d ~n in
  let flags = Debruijn.Necklace.mark_faulty_necklaces p faults in
  match Ffc.Embed.embed p ~faults with
  | Some e -> (e.Ffc.Embed.cycle, fun v -> flags.(v))
  | None -> Alcotest.fail "FFC embed failed"

let agree ?edge_faults ?(faulty = fun _ -> false) ~what ~p ~rings spec =
  let re, pe = E.run_with_payload ?edge_faults ~p ~faulty ~rings spec in
  let rf, pf = F.run_with_payload ?edge_faults ~p ~faulty ~rings spec in
  check_bool (what ^ ": reports agree") true (same_report re rf);
  check_bool (what ^ ": payload arenas agree") true (same_payload pe pf)

let test_fastpath_matches_netsim () =
  List.iter
    (fun op ->
      (* Fault-free Hamiltonian ring, uniform segments. *)
      let p = W.params ~d:2 ~n:4 in
      agree ~what:"B(2,4) hamiltonian" ~p
        ~rings:[ hamiltonian_ring ~d:2 ~n:4 ]
        { E.op; ranks = 4; chunk_words = 2; bidirectional = false };
      (* FFC ring under node faults: relay-lengthened segments. *)
      let ring, faulty = ffc_ring_and_faulty ~d:2 ~n:5 ~faults:[ 3; 17 ] in
      agree ~faulty ~what:"B(2,5) FFC f=2" ~p:(W.params ~d:2 ~n:5)
        ~rings:[ ring ]
        { E.op; ranks = 6; chunk_words = 1; bidirectional = false };
      agree ~faulty ~what:"B(2,5) FFC f=2 bidir" ~p:(W.params ~d:2 ~n:5)
        ~rings:[ ring ]
        { E.op; ranks = 6; chunk_words = 2; bidirectional = true };
      (* Striped edge-disjoint rings, shared relay nodes. *)
      let rings = List.map Str.to_nodes (Co.disjoint_streams_upto ~d:4 ~n:2 ~k:3) in
      agree ~what:"B(4,2) striped x3" ~p:(W.params ~d:4 ~n:2) ~rings
        { E.op; ranks = 8; chunk_words = 2; bidirectional = false };
      agree ~what:"B(4,2) striped x3 bidir" ~p:(W.params ~d:4 ~n:2) ~rings
        { E.op; ranks = 5; chunk_words = 1; bidirectional = true })
    [ S.Reduce_scatter; S.All_gather; S.Allreduce ];
  (* Survivors of link faults, with the faults actually removed. *)
  let sts =
    Dhc.Edge_fault.surviving_disjoint_streams ~d:4 ~n:2 ~faults:[ (0, 1) ]
  in
  agree ~edge_faults:[ (0, 1) ] ~what:"B(4,2) survivors"
    ~p:(W.params ~d:4 ~n:2)
    ~rings:(List.map Str.to_nodes sts)
    { E.op = S.Allreduce; ranks = 4; chunk_words = 2; bidirectional = false }

(* The closed-form rounds formula against hand-computed pipeline
   timings on a uniform ring: every segment has length L/R, so the
   last phase-(ph−1) receive lands at round ph·(L/R) and the simulator
   counts one more executed round. *)
let test_fastpath_closed_form () =
  let d = 2 and n = 4 in
  let p = W.params ~d ~n in
  let ring = hamiltonian_ring ~d ~n in
  let run op =
    F.run ~p ~faulty:(fun _ -> false) ~rings:[ ring ]
      { E.op; ranks = 4; chunk_words = 1; bidirectional = false }
  in
  let ar = run S.Allreduce in
  check_int "allreduce rounds = 2(R-1)(L/R)+1" ((6 * 4) + 1) ar.E.rounds;
  check_int "allreduce delivered = ph*L" (6 * 16) ar.E.delivered;
  check_int "single ring port load" 1 ar.E.max_port_load;
  check_int "single ring link load = phases" 6 ar.E.max_link_load;
  let rs = run S.Reduce_scatter in
  check_int "reduce-scatter rounds" ((3 * 4) + 1) rs.E.rounds;
  (* And the same figures from the measuring executor. *)
  let ns op =
    E.run ~p ~faulty:(fun _ -> false) ~rings:[ ring ]
      { E.op; ranks = 4; chunk_words = 1; bidirectional = false }
  in
  check_int "netsim agrees (ar)" (ns S.Allreduce).E.rounds ar.E.rounds;
  check_int "netsim agrees (rs)" (ns S.Reduce_scatter).E.rounds rs.E.rounds

let test_clamp_ranks () =
  let d = 2 and n = 4 in
  let p = W.params ~d ~n in
  let ring = hamiltonian_ring ~d ~n in
  let spec ranks =
    { E.op = S.Allreduce; ranks; chunk_words = 1; bidirectional = false }
  in
  Alcotest.check_raises "exec rejects ranks > length"
    (Invalid_argument
       "Collective.Exec.run: spec.ranks 99 > ring length 16 (pass \
        ~clamp_ranks:true to clamp)") (fun () ->
      ignore (E.run ~p ~faulty:(fun _ -> false) ~rings:[ ring ] (spec 99)));
  Alcotest.check_raises "fastpath rejects ranks > length"
    (Invalid_argument
       "Collective.Fastpath.run: spec.ranks 99 > ring length 16 (pass \
        ~clamp_ranks:true to clamp)") (fun () ->
      ignore (F.run ~p ~faulty:(fun _ -> false) ~rings:[ ring ] (spec 99)));
  let re = E.run ~clamp_ranks:true ~p ~faulty:(fun _ -> false) ~rings:[ ring ] (spec 99) in
  let rf = F.run ~clamp_ranks:true ~p ~faulty:(fun _ -> false) ~rings:[ ring ] (spec 99) in
  check_int "exec clamps to length" 16 re.E.ranks;
  check_bool "clamped runs agree" true (same_report re rf)

let test_fastpath_illegal_send () =
  let d = 2 and n = 4 in
  let p = W.params ~d ~n in
  let ring = hamiltonian_ring ~d ~n in
  let spec =
    { E.op = S.Allreduce; ranks = 4; chunk_words = 1; bidirectional = false }
  in
  (* Faulting the edge at ring position i kills the phase-0 wave at
     segment offset i mod (L/R) — the compile-time raise carries the
     round the simulator would first attempt that send. *)
  List.iter
    (fun pos ->
      match
        F.run
          ~edge_faults:[ (ring.(pos), ring.(pos + 1)) ]
          ~p ~faulty:(fun _ -> false) ~rings:[ ring ] spec
      with
      | exception Netsim.Simulator.Illegal_send { round; src; dst } ->
          check_int "illegal send round = segment offset" (pos mod 4) round;
          check_int "illegal send src" ring.(pos) src;
          check_int "illegal send dst" ring.(pos + 1) dst
      | _ -> Alcotest.fail "expected Illegal_send")
    [ 0; 1; 6 ]

(* ------------------------------------------------------------------ *)
(* The shared closed-form arena checker *)

module Fa = Graphlib.Flatarr

(* [rings] stripes of Schedule.simulate's final buffers laid out as an
   executor arena: ring-major, then rank-major, then chunk-major. *)
let simulated_arena op ~init ~rings ~ranks ~cw =
  Fa.of_array
    (Array.concat
       (List.concat
          (List.init rings (fun j ->
               Array.to_list
                 (S.simulate op ~ranks ~chunk_words:cw
                    ~init:(fun ~rank ~chunk ~word -> init ~ring:j ~rank ~chunk ~word))))))

let arena_sum a =
  let s = ref 0 in
  for i = 0 to Fa.length a - 1 do
    s := !s + a.{i}
  done;
  !s

(* verified can turn false: one corrupted word of a real executor
   arena is caught, and the checksum moves by exactly the corruption. *)
let test_verify_rejects_corruption () =
  let d = 4 and n = 2 in
  let p = W.params ~d ~n in
  let rings = List.map Str.to_nodes (Co.disjoint_streams_upto ~d ~n ~k:2) in
  List.iter
    (fun op ->
      let ranks = 5 and cw = 3 in
      let spec = { E.op; ranks; chunk_words = cw; bidirectional = false } in
      let r, payload = F.run_with_payload ~p ~faulty:(fun _ -> false) ~rings spec in
      let name = S.op_to_string op in
      let verify a =
        E.verify_arena op ~init:E.default_init ~rings:2 ~ranks ~chunk_words:cw a
      in
      let ok, sum = verify (Fa.of_array payload) in
      check_bool (name ^ ": clean arena verifies") true (ok && r.E.verified);
      check_int (name ^ ": checksum = report") r.E.checksum sum;
      (* Words of both rings: under reduce-scatter all four are
         non-owned prefix sums. *)
      List.iter
        (fun i ->
          let a = Fa.of_array payload in
          a.{i} <- a.{i} + 7;
          let ok, sum' = verify a in
          check_bool (Printf.sprintf "%s: word %d corrupted" name i) false ok;
          check_int (Printf.sprintf "%s: checksum shifts by 7" name) (sum + 7) sum')
        [ 0; 1; ranks * cw; Array.length payload - 1 ])
    [ S.Reduce_scatter; S.All_gather; S.Allreduce ]

(* ------------------------------------------------------------------ *)
(* Link sharing: slot counts against the sort-and-scan oracle *)

module C = Collective.Compile

let lower_family ?(bidirectional = false) ~p rings =
  C.lower ~what:"test" ~clamp_ranks:false ~edge_faults:[] ~bidirectional
    ~ranks:2 ~chunk_words:1 ~p ~faulty:(fun _ -> false) ~rings

(* The historical accounting, kept as the oracle: pack every driven
   directed edge as u·dⁿ + v, sort, and take the longest run. *)
let sort_scan_share (c : C.t) =
  let size = c.C.p.W.size and length = c.C.length in
  let keys =
    Array.concat
      (Array.to_list
         (Array.map
            (fun cycle ->
              Array.mapi (fun i u -> (u * size) + cycle.((i + 1) mod length)) cycle)
            c.C.cycles))
  in
  Array.sort Int.compare keys;
  let best = ref 1 and run = ref 1 in
  for i = 1 to Array.length keys - 1 do
    if keys.(i) = keys.(i - 1) then begin
      incr run;
      if !run > !best then best := !run
    end
    else run := 1
  done;
  !best

let test_share_two_cycle () =
  (* The length-2 ring 01 → 10 → 01 of B(2,2): both hops are forward
     De Bruijn edges, so its reversal drives the same two directed
     links again. *)
  let p = W.params ~d:2 ~n:2 in
  let c = lower_family ~bidirectional:true ~p [ [| 1; 2 |] ] in
  check_int "reversal reuses both links" 2 (C.max_edge_share c);
  check_int "oracle agrees" (sort_scan_share c) (C.max_edge_share c);
  let c = lower_family ~p [ [| 1; 2 |] ] in
  check_int "one direction alone" 1 (C.max_edge_share c)

let test_share_many_copies () =
  (* More copies than a byte counter holds. *)
  let p = W.params ~d:2 ~n:3 in
  let ring = hamiltonian_ring ~d:2 ~n:3 in
  let c = lower_family ~p (List.init 300 (fun _ -> ring)) in
  check_int "300 copies share every link" 300 (C.max_edge_share c);
  let c = lower_family ~bidirectional:true ~p (List.init 300 (fun _ -> ring)) in
  check_int "bidirectional oracle agrees" (sort_scan_share c) (C.max_edge_share c)

let test_share_link_load () =
  (* The striped B(4,2) family plus a second copy of its first ring:
     that ring's links carry two rings' traffic. *)
  let p = W.params ~d:4 ~n:2 in
  let rings = List.map Str.to_nodes (Co.disjoint_streams_upto ~d:4 ~n:2 ~k:3) in
  let rings = List.hd rings :: rings in
  check_int "share 2" 2 (C.max_edge_share (lower_family ~p rings));
  let spec = { E.op = S.Allreduce; ranks = 4; chunk_words = 2; bidirectional = false } in
  let re = E.run ~p ~faulty:(fun _ -> false) ~rings spec in
  let rf = F.run ~p ~faulty:(fun _ -> false) ~rings spec in
  check_int "exec link load = share x phases" (2 * re.E.phases) re.E.max_link_load;
  check_int "fastpath link load = share x phases" (2 * rf.E.phases) rf.E.max_link_load;
  agree ~what:"B(4,2) overlapping family" ~p ~rings spec

(* Codes past a byte.  In B(300,1) every ordered pair is an edge, so
   any permutation is a ring and a code is the successor itself.  The
   third ring runs 0 → 299 → … → 1 backwards except that it takes the
   link 254 → 255 of the first, whose code is 255. *)
let test_share_wide_codes () =
  let p = W.params ~d:300 ~n:1 in
  let ring = Array.init 300 Fun.id in
  let back =
    Array.init 300 (fun i ->
        match if i = 0 then 0 else 300 - i with 255 -> 254 | 254 -> 255 | v -> v)
  in
  List.iter
    (fun (what, rings, share) ->
      let c = lower_family ~p rings in
      check_int (what ^ ": share") share (C.max_edge_share c);
      check_int (what ^ ": oracle agrees") (sort_scan_share c) (C.max_edge_share c);
      List.iter
        (fun (op, ranks) ->
          agree ~what:(what ^ " " ^ S.op_to_string op) ~p ~rings
            { E.op; ranks; chunk_words = 1; bidirectional = false })
        [ (S.Allreduce, 4); (S.Reduce_scatter, 7) ])
    [
      ("copy", [ ring; Array.copy ring ], 2);
      ("one shared link", [ ring; back ], 2);
      ("copy and one shared link", [ ring; Array.copy ring; back ], 3);
    ];
  (* The fault-free FFC ring of B(130,2), both directions: reverse
     codes reach 2d − 1 = 259. *)
  let p = W.params ~d:130 ~n:2 in
  match Ffc.Embed.embed p ~faults:[] with
  | None -> Alcotest.fail "FFC embed failed"
  | Some e ->
      let c = lower_family ~bidirectional:true ~p [ e.Ffc.Embed.cycle ] in
      check_int "B(130,2) both directions: share" 1 (C.max_edge_share c);
      check_int "B(130,2) oracle agrees" (sort_scan_share c) (C.max_edge_share c)

(* ------------------------------------------------------------------ *)
(* Illegal_send: the earliest (round, src), ties to the lowest ring *)

(* The historical lowering screen, kept as the oracle: ring by ring and
   edge by edge, a bad edge replaces the held one only at a strictly
   smaller (round, src), so ties keep the lowest-indexed ring. *)
let scan_illegal ~p ~bidirectional ~edge_faults ~ranks rings =
  let length = Array.length (List.hd rings) in
  let rev c = Array.init length (fun i -> c.(length - 1 - i)) in
  let cycles = if bidirectional then rings @ List.map rev rings else rings in
  let bounds = S.boundaries ~ranks ~length in
  let probe = C.Fault_probe.make ~size:p.W.size ~bidirectional edge_faults in
  let adjacent u v =
    W.suffix p u = W.prefix p v || (bidirectional && W.suffix p v = W.prefix p u)
  in
  let best = ref None in
  List.iter
    (fun cycle ->
      let seg = ref 0 in
      for i = 0 to length - 1 do
        while !seg < ranks - 1 && i >= bounds.(!seg + 1) do
          incr seg
        done;
        let u = cycle.(i) and v = cycle.((i + 1) mod length) in
        if (not (adjacent u v)) || C.Fault_probe.mem probe u v then
          let h = i - bounds.(!seg) in
          match !best with
          | Some (h', u', _) when h' < h || (h' = h && u' <= u) -> ()
          | _ -> best := Some (h, u, v)
      done)
    cycles;
  !best

let lower_outcome ~p ~bidirectional ~edge_faults ~ranks rings =
  match
    C.lower ~what:"test" ~clamp_ranks:false ~edge_faults ~bidirectional ~ranks
      ~chunk_words:1 ~p ~faulty:(fun _ -> false) ~rings
  with
  | exception Netsim.Simulator.Illegal_send { round; src; dst } -> Some (round, src, dst)
  | _ -> None

(* Two faulted links leave node 0 in round 0 (every node is a rank) on
   different rings; the faults are listed highest ring first. *)
let test_illegal_send_tie_break () =
  (* The node [k] steps after [u] along [ring]. *)
  let step ring u k =
    let l = Array.length ring in
    let i = ref 0 in
    while ring.(!i) <> u do incr i done;
    ring.((!i + k + l) mod l)
  in
  let succ ring u = step ring u 1 and pred ring u = step ring u (-1) in
  let p = W.params ~d:5 ~n:2 in
  let rings = List.map Str.to_nodes (Co.disjoint_streams_upto ~d:5 ~n:2 ~k:2) in
  let r0 = List.nth rings 0 and r1 = List.nth rings 1 in
  let edge_faults = [ (0, succ r1 0); (0, succ r0 0) ] in
  Alcotest.(check (option (triple int int int)))
    "B(5,2) two rings: ring 0's link wins"
    (Some (0, 0, succ r0 0))
    (lower_outcome ~p ~bidirectional:false ~edge_faults ~ranks:25 rings);
  (* Driven rings f0, f1, reversed f0, reversed f1: the fault on
     (pred f0 0, 0) also kills 0 → pred f0 0 on ring 2, and the one on
     (0, succ f1 0) kills it on ring 1. *)
  let p = W.params ~d:4 ~n:2 in
  let rings = List.map Str.to_nodes (Co.disjoint_streams_upto ~d:4 ~n:2 ~k:2) in
  let f0 = List.nth rings 0 and f1 = List.nth rings 1 in
  let edge_faults = [ (pred f0 0, 0); (0, succ f1 0) ] in
  Alcotest.(check (option (triple int int int)))
    "B(4,2) bidirectional: ring 1's link wins"
    (Some (0, 0, succ f1 0))
    (lower_outcome ~p ~bidirectional:true ~edge_faults ~ranks:16 rings);
  List.iter
    (fun (bidirectional, edge_faults) ->
      Alcotest.(check (option (triple int int int)))
        "oracle agrees"
        (scan_illegal ~p ~bidirectional ~edge_faults ~ranks:16 rings)
        (lower_outcome ~p ~bidirectional ~edge_faults ~ranks:16 rings))
    [ (true, edge_faults); (false, edge_faults) ]

(* ------------------------------------------------------------------ *)
(* Properties *)

let qsuite =
  let open QCheck in
  [
    Test.make ~name:"striped = single ring = sequential fold" ~count:30
      (triple (int_range 0 2) (int_range 2 8) (int_range 1 3))
      (fun (opi, ranks, cw) ->
        let op = List.nth [ S.Reduce_scatter; S.All_gather; S.Allreduce ] opi in
        let d = 4 and n = 2 in
        let k = 1 + (ranks mod P.psi d) in
        let rings = List.map Str.to_nodes (Co.disjoint_streams_upto ~d ~n ~k) in
        let p = W.params ~d ~n in
        let seeded ~ring ~rank ~chunk ~word =
          1 + (((ring * 101) + (rank * 13) + (chunk * 7) + (word * 3)) mod 89)
        in
        let r =
          E.run ~init:seeded ~p
            ~faulty:(fun _ -> false)
            ~rings
            { E.op; ranks; chunk_words = cw; bidirectional = false }
        in
        (* verified = exact equality against the closed form, which the
           verify_arena property pins to Schedule.simulate, itself
           checked against the sequential fold in the unit tests. *)
        r.E.verified && r.E.rings = k);
    Test.make ~name:"random surviving rings verify under link faults" ~count:20
      (pair (int_range 0 2) small_nat)
      (fun (nf, seed) ->
        let d = 4 and n = 2 in
        let all = Co.disjoint_hamiltonian_streams ~d ~n in
        let rng = Util.Rng.split seed 7 in
        (* Fault nf distinct rings' first edges. *)
        let victims =
          List.filteri (fun i _ -> i < nf)
            (List.map (fun st ->
                 let u = Util.Rng.int rng st.Str.p.W.size in
                 (u, st.Str.succ u))
                all)
        in
        let survivors =
          Dhc.Edge_fault.surviving_disjoint_streams ~d ~n ~faults:victims
        in
        match survivors with
        | [] -> true
        | sts ->
            let p = W.params ~d ~n in
            let r =
              E.run ~edge_faults:victims ~p
                ~faulty:(fun _ -> false)
                ~rings:(List.map Str.to_nodes sts)
                {
                  E.op = S.Allreduce;
                  ranks = 4;
                  chunk_words = 2;
                  bidirectional = false;
                }
            in
            r.E.verified);
    (* The seed-era name: the netsim executor against the compiled
       one, over a drawn rank count and chunk width. *)
    Test.make ~name:"domains stepping is bit-identical" ~count:10
      (pair (int_range 2 6) (int_range 1 2))
      (fun (ranks, cw) ->
        let d = 2 and n = 5 in
        let p = W.params ~d ~n in
        let spec = { E.op = S.Allreduce; ranks; chunk_words = cw; bidirectional = false } in
        let rings = [ hamiltonian_ring ~d ~n ] in
        let a, pa = E.run_with_payload ~p ~faulty:(fun _ -> false) ~rings spec in
        let b, pb =
          Collective.Fastpath.run_with_payload ~p ~faulty:(fun _ -> false) ~rings spec
        in
        a.E.checksum = b.E.checksum
        && a.E.rounds = b.E.rounds
        && a.E.delivered = b.E.delivered
        && a.E.verified && b.E.verified && pa = pb);
    (* The tentpole pin: identical report counters and word-identical
       payload arenas across ops x ranks x chunk_words x bidirectional
       x node-fault draws (FFC rings, relay-lengthened segments). *)
    Test.make ~name:"fastpath = netsim (reports + payload arenas)" ~count:25
      (quad (int_range 0 2) (int_range 2 10) (int_range 1 3)
         (pair bool (int_range 0 3)))
      (fun (opi, ranks, cw, (bidir, nf)) ->
        let op = List.nth [ S.Reduce_scatter; S.All_gather; S.Allreduce ] opi in
        let d = 2 and n = 5 in
        let faults = List.filteri (fun i _ -> i < nf) [ 5; 11; 23 ] in
        let ring, faulty = ffc_ring_and_faulty ~d ~n ~faults in
        let p = W.params ~d ~n in
        let spec = { E.op; ranks; chunk_words = cw; bidirectional = bidir } in
        let seeded ~ring ~rank ~chunk ~word =
          1 + (((ring * 211) + (rank * 17) + (chunk * 5) + (word * 3)) mod 83)
        in
        let re, pe =
          E.run_with_payload ~init:seeded ~p ~faulty ~rings:[ ring ] spec
        in
        let rf, pf =
          F.run_with_payload ~init:seeded ~p ~faulty ~rings:[ ring ] spec
        in
        same_report re rf && same_payload pe pf);
    (* Same pin over the Chapter-3 side: striped survivors of random
       link-fault draws. *)
    Test.make ~name:"fastpath = netsim (striped survivors)" ~count:20
      (pair (int_range 0 2) small_nat)
      (fun (nf, seed) ->
        let d = 4 and n = 2 in
        let all = Co.disjoint_hamiltonian_streams ~d ~n in
        let rng = Util.Rng.split seed 11 in
        let victims =
          List.filteri (fun i _ -> i < nf)
            (List.map (fun st ->
                 let u = Util.Rng.int rng st.Str.p.W.size in
                 (u, st.Str.succ u))
                all)
        in
        match
          Dhc.Edge_fault.surviving_disjoint_streams ~d ~n ~faults:victims
        with
        | [] -> true
        | sts ->
            let p = W.params ~d ~n in
            let rings = List.map Str.to_nodes sts in
            let spec =
              { E.op = S.Allreduce; ranks = 6; chunk_words = 2; bidirectional = false }
            in
            let re, pe =
              E.run_with_payload ~edge_faults:victims ~p
                ~faulty:(fun _ -> false) ~rings spec
            in
            let rf, pf =
              F.run_with_payload ~edge_faults:victims ~p
                ~faulty:(fun _ -> false) ~rings spec
            in
            same_report re rf && same_payload pe pf);
    (* Slot counting equals the sort-and-scan oracle on families with
       repeated rings, in both directions. *)
    Test.make ~name:"max_edge_share = sort-and-scan oracle" ~count:40
      (triple (pair (int_range 3 4) (int_range 2 3)) bool
         (list_of_size (Gen.int_range 2 6) small_nat))
      (fun ((d, n), bidirectional, picks) ->
        let p = W.params ~d ~n in
        let all = Array.of_list (List.map Str.to_nodes (Co.disjoint_streams_upto ~d ~n ~k:(P.psi d))) in
        let rings = List.map (fun i -> all.(i mod Array.length all)) picks in
        let c = lower_family ~bidirectional ~p rings in
        C.max_edge_share c = sort_scan_share c);
    (* Port load and sharing on families with repeated rings: the
       netsim executor's port load is the simulator's own census. *)
    Test.make ~name:"fastpath = netsim (overlapping families)" ~count:25
      (quad (pair (int_range 3 4) (int_range 2 3)) bool (int_range 0 2)
         (pair (list_of_size (Gen.int_range 2 6) small_nat) small_nat))
      (fun ((d, n), bidirectional, opi, (picks, r)) ->
        let op = List.nth [ S.Reduce_scatter; S.All_gather; S.Allreduce ] opi in
        let p = W.params ~d ~n in
        let all = Array.of_list (List.map Str.to_nodes (Co.disjoint_streams_upto ~d ~n ~k:(P.psi d))) in
        let rings = List.map (fun i -> all.(i mod Array.length all)) picks in
        let ranks = 2 + (r mod (p.W.size - 1)) in
        let spec = { E.op; ranks; chunk_words = 1 + (r mod 2); bidirectional } in
        let re, pe = E.run_with_payload ~p ~faulty:(fun _ -> false) ~rings spec in
        let rf, pf = F.run_with_payload ~p ~faulty:(fun _ -> false) ~rings spec in
        let c =
          C.lower ~what:"test" ~clamp_ranks:false ~edge_faults:[] ~bidirectional ~ranks
            ~chunk_words:1 ~p ~faulty:(fun _ -> false) ~rings
        in
        same_report re rf && same_payload pe pf
        && C.max_port_load c ~phases:re.E.phases = re.E.max_port_load);
    (* The compile-time Illegal_send against the historical ring-major
       scan: 0–3 faults on and off ring edges (half of the on-ring ones
       leave one hub node), sometimes a ring with two nodes swapped,
       and every node a rank a quarter of the time. *)
    Test.make ~name:"lower's Illegal_send = ring-major scan oracle" ~count:2000
      (quad (int_range 0 2) bool (int_range 0 3) (pair bool small_nat))
      (fun (fam, bidirectional, nf, (swap, seed)) ->
        let d, n = List.nth [ (2, 4); (3, 3); (4, 2) ] fam in
        let p = W.params ~d ~n in
        let size = p.W.size in
        let rng = Util.Rng.create seed in
        let all = Array.of_list (List.map Str.to_nodes (Co.disjoint_streams_upto ~d ~n ~k:(P.psi d))) in
        let k = 1 + Util.Rng.int rng (Array.length all + 1) in
        let rings = List.init k (fun _ -> Array.copy all.(Util.Rng.int rng (Array.length all))) in
        (if swap then
           let c = List.hd rings in
           let i = Util.Rng.int rng size and j = Util.Rng.int rng size in
           let t = c.(i) in
           c.(i) <- c.(j);
           c.(j) <- t);
        let ranks = if Util.Rng.int rng 4 = 0 then size else 2 + Util.Rng.int rng (size - 1) in
        let hub = Util.Rng.int rng size in
        let out_edge c u =
          let i = ref 0 in
          while c.(!i) <> u do incr i done;
          (u, c.((!i + 1) mod size))
        in
        let fault _ =
          let c = List.nth rings (Util.Rng.int rng k) in
          match Util.Rng.int rng 5 with
          | 0 | 1 -> out_edge c hub
          | 2 -> out_edge c c.(Util.Rng.int rng size)
          | 3 -> let u, v = out_edge c c.(Util.Rng.int rng size) in (v, u)
          | _ -> (Util.Rng.int rng size, Util.Rng.int rng (size + 2))
        in
        let edge_faults = List.init nf fault in
        scan_illegal ~p ~bidirectional ~edge_faults ~ranks rings
        = lower_outcome ~p ~bidirectional ~edge_faults ~ranks rings);
    (* The closed-form checker accepts exactly the reference
       executor's final buffers: all of them, with their plain sum as
       checksum, and none once one word is off. *)
    Test.make ~name:"verify_arena accepts exactly simulate" ~count:60
      (quad (int_range 0 2) (int_range 2 9) (int_range 1 5)
         (triple (int_range 0 3) small_nat (pair small_nat (int_range 1 1000))))
      (fun (opi, ranks, cw, (j, seed, (pos, delta))) ->
        let op = List.nth [ S.Reduce_scatter; S.All_gather; S.Allreduce ] opi in
        let rings = j + 1 in
        let seeded ~ring ~rank ~chunk ~word =
          (Hashtbl.hash (seed, ring, rank, chunk, word) mod 2001) - 1000
        in
        let a = simulated_arena op ~init:seeded ~rings ~ranks ~cw in
        let verify () =
          E.verify_arena op ~init:seeded ~rings ~ranks ~chunk_words:cw a
        in
        let sum = arena_sum a in
        let clean = verify () = (true, sum) in
        let i = pos mod Fa.length a in
        a.{i} <- a.{i} + delta;
        clean && verify () = (false, sum + delta));
    (* The seed-era name: three bidirectional disjoint rings of
       B(4,2), the compiled kernel against the netsim executor,
       reports and arenas. *)
    Test.make ~name:"fastpath ?domains 1/2/4 bit-identity" ~count:10
      (pair (int_range 0 2) (int_range 1 2))
      (fun (opi, cw) ->
        let op = List.nth [ S.Reduce_scatter; S.All_gather; S.Allreduce ] opi in
        let d = 4 and n = 2 in
        let rings = List.map Str.to_nodes (Co.disjoint_streams_upto ~d ~n ~k:3) in
        let p = W.params ~d ~n in
        let spec = { E.op; ranks = 8; chunk_words = cw; bidirectional = true } in
        let re, pe = E.run_with_payload ~p ~faulty:(fun _ -> false) ~rings spec in
        let rf, pf = F.run_with_payload ~p ~faulty:(fun _ -> false) ~rings spec in
        re.E.verified && same_report re rf && same_payload pe pf);
  ]

let () =
  Alcotest.run "collective"
    [
      ( "schedule",
        [
          Alcotest.test_case "send/recv indices" `Quick test_schedule_indices;
          Alcotest.test_case "rank boundaries" `Quick test_schedule_boundaries;
          Alcotest.test_case "reference executor vs fold oracle" `Quick
            test_simulate_oracle;
          Alcotest.test_case "reduce-scatter prefix sums" `Quick
            test_reduce_scatter_prefix;
        ] );
      ( "exec",
        [
          Alcotest.test_case "exact verification + invariants" `Quick
            test_exec_verifies;
          Alcotest.test_case "striping and bidirectional" `Quick
            test_exec_striped_and_bidir;
          Alcotest.test_case "domains bit-identity" `Quick
            test_exec_domains_bit_identical;
          Alcotest.test_case "implicit topology = remove_edges (undirected_view ...)"
            `Quick test_exec_topology;
          Alcotest.test_case "validation" `Quick test_exec_validation;
        ] );
      ( "fastpath",
        [
          Alcotest.test_case "matches netsim across configs" `Quick
            test_fastpath_matches_netsim;
          Alcotest.test_case "closed-form rounds/congestion" `Quick
            test_fastpath_closed_form;
          Alcotest.test_case "clamp_ranks policy" `Quick test_clamp_ranks;
          Alcotest.test_case "illegal send at compile time" `Quick
            test_fastpath_illegal_send;
          Alcotest.test_case "illegal send tie-break across rings" `Quick
            test_illegal_send_tie_break;
        ] );
      ( "verify",
        [
          Alcotest.test_case "one corrupted word is caught" `Quick
            test_verify_rejects_corruption;
        ] );
      ( "sharing",
        [
          Alcotest.test_case "length-2 ring reversed" `Quick test_share_two_cycle;
          Alcotest.test_case "300 copies" `Quick test_share_many_copies;
          Alcotest.test_case "link load = share x phases" `Quick
            test_share_link_load;
          Alcotest.test_case "codes wider than a byte" `Quick test_share_wide_codes;
        ] );
      ("properties", List.map (fun t -> QCheck_alcotest.to_alcotest ~long:false t) qsuite);
    ]
