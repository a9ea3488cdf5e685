(* Tests for the synchronous message-passing simulator.

   [Netsim.Simulator] is the worklist engine with flat mailboxes;
   [Oracles.Netsim_reference] is the seed full-scan implementation, with
   its list interface, kept as an executable spec.  The qcheck suite at
   the bottom checks that the two agree on random protocols over random
   B(d,n) topologies with random fault sets. *)

module D = Graphlib.Digraph
module T = Oracles.Traversal
module S = Netsim.Simulator
module R = Oracles.Netsim_reference
module L = Oracles.Netsim_lists

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let no_faults _ = false

(* A materialized digraph as the simulator's topology. *)
let of_digraph g = { S.nodes = D.n_nodes g; mem_edge = D.mem_edge g }

(* A flooding protocol computing BFS distance from a root: [dist] is
   the best-known distance per node (max_int = unknown); the root seeds
   at round 0 and every improvement is re-broadcast to all
   out-neighbors.  Returns the state table with the protocol. *)
let flood_protocol root ~succs n =
  let dist = Array.init n (fun v -> if v = root then 0 else max_int) in
  let proto : int S.protocol =
    {
      step =
        (fun ~round v inbox ~send ->
          let best = ref dist.(v) in
          for i = 0 to S.Inbox.length inbox - 1 do
            best := min !best (S.Inbox.msg inbox i + 1)
          done;
          let improved = !best < dist.(v) in
          dist.(v) <- !best;
          if improved || (round = 0 && v = root) then List.iter (fun w -> send w !best) (succs v));
      wants_step = (fun _ -> false);
    }
  in
  (dist, proto)

let flood_on root g = flood_protocol root ~succs:(D.succs g) (D.n_nodes g)

(* The same flood as a seed-style list protocol, for the reference
   engine. *)
let flood_list root g : (int, int) R.protocol =
  {
    initial = (fun v -> if v = root then 0 else max_int);
    step =
      (fun ~round v state inbox ->
        let best = List.fold_left (fun acc (_, d) -> min acc (d + 1)) state inbox in
        let improved = best < state in
        let should_broadcast = improved || (round = 0 && v = root) in
        let sends =
          if should_broadcast then List.map (fun w -> (w, best)) (D.succs g v) else []
        in
        (best, sends));
    wants_step = (fun _ -> false);
  }

let ring n = D.of_edges n (List.init n (fun i -> (i, (i + 1) mod n)))

let test_flood_ring () =
  let g = ring 8 in
  let dist, proto = flood_on 0 g in
  let r = S.run ~topology:(of_digraph g) ~faulty:no_faults proto in
  Alcotest.(check (array int)) "distances" [| 0; 1; 2; 3; 4; 5; 6; 7 |] dist;
  (* Node 7 improves in round 7 (= eccentricity) and re-broadcasts; its
     message is delivered back to node 0 in round 8, the last round
     with activity — so rounds 0..8, i.e. 9 executed rounds. *)
  check_int "rounds = eccentricity + 2" 9 r.S.rounds;
  check_int "trace has one entry per round" 9 (Array.length r.S.trace);
  check_int "round 0 steps everyone" 8 r.S.trace.(0).S.active;
  check_int "last round delivers one message" 1 r.S.trace.(8).S.delivered_in_round

let test_flood_matches_bfs () =
  (* Random-ish graph, compare protocol result with centralized BFS. *)
  let edges =
    [ (0, 1); (0, 2); (1, 3); (2, 3); (3, 4); (4, 0); (2, 5); (5, 6); (6, 2); (4, 7); (7, 8); (8, 9); (9, 4); (1, 9) ]
  in
  let g = D.of_edges 10 edges in
  let dist, proto = flood_on 0 g in
  ignore (S.run ~topology:(of_digraph g) ~faulty:no_faults proto);
  let expected = T.bfs_dist g 0 in
  Array.iteri
    (fun v d ->
      let got = if dist.(v) = max_int then -1 else dist.(v) in
      check_int (Printf.sprintf "node %d" v) d got)
    expected

let test_flood_with_fault () =
  (* Killing node 3 on a line 0->1->2->3->4 stops the flood at 2. *)
  let g = D.of_edges 5 [ (0, 1); (1, 2); (2, 3); (3, 4) ] in
  let dist, proto = flood_on 0 g in
  ignore (S.run ~topology:(of_digraph g) ~faulty:(fun v -> v = 3) proto);
  check_int "node 2 reached" 2 dist.(2);
  check_bool "node 4 not reached" true (dist.(4) = max_int);
  (* A faulty node never steps, so its state stays initial. *)
  check_bool "faulty state untouched" true (dist.(3) = max_int)

let test_faulty_source_sends_nothing () =
  let g = ring 4 in
  let dist, proto = flood_on 0 g in
  let r = S.run ~topology:(of_digraph g) ~faulty:(fun v -> v = 0) proto in
  check_bool "nobody reached" true (Array.for_all (fun s -> s = max_int || s = 0) dist);
  check_int "no deliveries" 0 r.S.delivered

let test_all_faulty () =
  let g = ring 4 in
  let r = S.run ~topology:(of_digraph g) ~faulty:(fun _ -> true) (snd (flood_on 0 g)) in
  check_int "zero rounds executed" 0 r.S.rounds;
  check_int "empty trace" 0 (Array.length r.S.trace)

let test_illegal_send () =
  let g = D.of_edges 3 [ (0, 1) ] in
  let proto : int S.protocol =
    {
      step = (fun ~round:_ v _ ~send -> if v = 0 then send 2 0);
      wants_step = (fun _ -> false);
    }
  in
  check_bool "raises" true
    (match S.run ~topology:(of_digraph g) ~faulty:no_faults proto with
    | exception S.Illegal_send { src = 0; dst = 2; _ } -> true
    | _ -> false)

(* The exception carries the exact (round, src, dst) of the offending
   send, for a non-neighbor and for ids outside the network alike: a
   token walks the De Bruijn edges of B(2,4) from node 1 and, in round
   [at], its holder sends to [bad holder] instead. *)
let test_illegal_send_exact () =
  let p = Debruijn.Word.params ~d:2 ~n:4 in
  let topology = S.de_bruijn p in
  let run ~at ~bad =
    let proto : unit S.protocol =
      {
        step =
          (fun ~round v inbox ~send ->
            let holder = (round = 0 && v = 1) || S.Inbox.length inbox > 0 in
            if holder then send (if round = at then bad v else Debruijn.Word.rotl p v) ());
        wants_step = (fun _ -> false);
      }
    in
    match S.run ~topology ~faulty:no_faults proto with
    | exception S.Illegal_send { round; src; dst } -> Some (round, src, dst)
    | _ -> None
  in
  (* 1 = 0001 → 0010 → 0100 → 1000: round 3's holder is node 8 = 1000,
     whose successors are 0000 and 0001. *)
  let check what ~at ~bad expected =
    Alcotest.(check (option (triple int int int))) what (Some expected) (run ~at ~bad)
  in
  check "non-neighbor" ~at:3 ~bad:(fun _ -> 5) (3, 8, 5);
  check "past the last id" ~at:2 ~bad:(fun _ -> 16) (2, 4, 16);
  check "negative id" ~at:0 ~bad:(fun _ -> -1) (0, 1, -1);
  check "far out of range" ~at:1 ~bad:(fun _ -> max_int) (1, 2, max_int)

let test_divergence_guard () =
  let g = ring 3 in
  (* A protocol that always wants to step never quiesces. *)
  let proto : int S.protocol =
    { step = (fun ~round:_ _ _ ~send:_ -> ()); wants_step = (fun _ -> true) }
  in
  check_bool "did not converge" true
    (match S.run ~max_rounds:10 ~topology:(of_digraph g) ~faulty:no_faults proto with
    | exception S.Did_not_converge 10 -> true
    | _ -> false)

(* Pin the round-accounting semantics: [rounds] is the number of
   executed rounds, and [max_rounds] admits exactly [max_rounds] of
   them (not max_rounds + 1, the seed's off-by-one). *)
let token_protocol n =
  let seen = Array.make n false in
  let proto : unit S.protocol =
    {
      step =
        (fun ~round v inbox ~send ->
          if round = 0 && v = 0 then begin
            seen.(v) <- true;
            send 1 ()
          end
          else if S.Inbox.length inbox > 0 && not seen.(v) then begin
            (* the token stops once it is back at the start *)
            seen.(v) <- true;
            send ((v + 1) mod n) ()
          end);
      wants_step = (fun _ -> false);
    }
  in
  (seen, proto)

let test_round_accounting () =
  (* Token once around a ring of 5: activity in rounds 0..5, so exactly
     6 executed rounds. *)
  let g = ring 5 in
  let r = S.run ~topology:(of_digraph g) ~faulty:no_faults (snd (token_protocol 5)) in
  check_int "rounds = executed count" 6 r.S.rounds;
  check_int "trace length = rounds" 6 (Array.length r.S.trace)

let test_max_rounds_budget () =
  let g = ring 5 in
  (* The run needs 6 rounds: a budget of 6 succeeds... *)
  let r =
    S.run ~max_rounds:6 ~topology:(of_digraph g) ~faulty:no_faults (snd (token_protocol 5))
  in
  check_int "fits the budget exactly" 6 r.S.rounds;
  (* ...and a budget of 5 must raise — the seed guard would have let
     this through (it admitted max_rounds + 1 executed rounds). *)
  check_bool "budget of 5 raises" true
    (match
       S.run ~max_rounds:5 ~topology:(of_digraph g) ~faulty:no_faults (snd (token_protocol 5))
     with
    | exception S.Did_not_converge 5 -> true
    | _ -> false)

let test_message_accounting () =
  (* Token passing once around a ring of 5: exactly 5 deliveries. *)
  let g = ring 5 in
  let seen, proto = token_protocol 5 in
  let r = S.run ~topology:(of_digraph g) ~faulty:no_faults proto in
  check_int "deliveries" 5 r.S.delivered;
  check_int "max inflight" 1 r.S.max_inflight;
  check_int "port load 1 (single-port compatible)" 1 r.S.max_port_load;
  check_bool "all saw token" true (Array.for_all Fun.id seen)

let test_multiport () =
  (* A star center sending to all leaves in one round: multi-port
     semantics deliver all k messages in the same round. *)
  let k = 6 in
  let g = D.of_edges (k + 1) (List.init k (fun i -> (0, i + 1))) in
  let got = Array.init (k + 1) (fun v -> v = 0) in
  let proto : unit S.protocol =
    {
      step =
        (fun ~round v inbox ~send ->
          if round = 0 && v = 0 then
            for i = 1 to k do
              send i ()
            done
          else if S.Inbox.length inbox > 0 then got.(v) <- true);
      wants_step = (fun _ -> false);
    }
  in
  let r = S.run ~topology:(of_digraph g) ~faulty:no_faults proto in
  check_bool "all leaves got it" true (Array.for_all Fun.id got);
  check_int "seed round + one delivery round" 2 r.S.rounds;
  check_int "k messages in one round" k r.S.max_inflight;
  (* the star center used k ports at once; under single-port hardware
     the same protocol would need k rounds (the thesis's factor-d) *)
  check_int "port load" k r.S.max_port_load

(* What node [v] last received, as (src, payload) pairs in inbox
   order. *)
let recorder n =
  let seen = Array.make n [] in
  let record v inbox =
    if S.Inbox.length inbox > 0 then
      seen.(v) <- List.init (S.Inbox.length inbox) (fun i -> (S.Inbox.src inbox i, S.Inbox.msg inbox i))
  in
  (seen, record)

let test_inbox_sorted_by_source () =
  (* Node 3 receives from 0, 1 and 2 in the same round; its inbox
     lists them by source. *)
  let g = D.of_edges 4 [ (0, 3); (1, 3); (2, 3) ] in
  let seen, record = recorder 4 in
  let proto : int S.protocol =
    {
      step =
        (fun ~round v inbox ~send ->
          if round = 0 && v < 3 then send 3 (v * 10) else record v inbox);
      wants_step = (fun _ -> false);
    }
  in
  ignore (S.run ~topology:(of_digraph g) ~faulty:no_faults proto);
  Alcotest.(check (list int)) "sources in order" [ 0; 1; 2 ] (List.map fst seen.(3))

let test_same_source_keeps_send_order () =
  (* Two messages from the same source in one round arrive in send
     order — the seed sorted (src, payload) pairs, which would have
     reordered these by payload. *)
  let g = D.of_edges 2 [ (0, 1); (0, 1) ] in
  let seen, record = recorder 2 in
  let proto : int S.protocol =
    {
      step =
        (fun ~round v inbox ~send ->
          if round = 0 && v = 0 then begin
            send 1 9;
            send 1 1
          end
          else record v inbox);
      wants_step = (fun _ -> false);
    }
  in
  ignore (S.run ~topology:(of_digraph g) ~faulty:no_faults proto);
  Alcotest.(check (list int)) "send order, not payload order" [ 9; 1 ] (List.map snd seen.(1))

let test_inbox_bounds () =
  (* A step sees its own slice only: reads past it are refused, not
     served from a neighbor's mail. *)
  let g = D.of_edges 3 [ (0, 2); (1, 2); (0, 1) ] in
  let outcomes = ref [] in
  let proto : int S.protocol =
    {
      step =
        (fun ~round v inbox ~send ->
          if round = 0 then (if v < 2 then send 2 v)
          else begin
            let len = S.Inbox.length inbox in
            let refused i = match S.Inbox.msg inbox i with exception Invalid_argument _ -> true | _ -> false in
            outcomes := (v, len, refused len, refused (-1)) :: !outcomes
          end);
      wants_step = (fun _ -> false);
    }
  in
  ignore (S.run ~topology:(of_digraph g) ~faulty:no_faults proto);
  Alcotest.(check (list (pair int int))) "inbox lengths" [ (2, 2) ]
    (List.map (fun (v, len, _, _) -> (v, len)) !outcomes);
  check_bool "out-of-slice reads refused" true
    (List.for_all (fun (_, _, a, b) -> a && b) !outcomes)

let test_functional_payload () =
  (* Regression: the seed sorted inboxes with polymorphic [compare]
     over (src, payload) pairs, so a payload containing a closure
     raised [Invalid_argument "compare: functional value"] as soon as
     one node received two messages.  The engine must never compare
     payloads. *)
  let g = D.of_edges 3 [ (0, 2); (0, 2); (1, 2) ] in
  let sends_of ~round v =
    if round = 0 && v = 0 then [ (2, fun x -> x + 3); (2, fun x -> x * 7) ]
    else if round = 0 && v = 1 then [ (2, fun x -> x * 2) ]
    else []
  in
  let acc = Array.make 3 0 in
  let proto : (int -> int) S.protocol =
    {
      step =
        (fun ~round v inbox ~send ->
          for i = 0 to S.Inbox.length inbox - 1 do
            acc.(v) <- S.Inbox.msg inbox i acc.(v)
          done;
          List.iter (fun (dst, f) -> send dst f) (sends_of ~round v));
      wants_step = (fun _ -> false);
    }
  in
  ignore (S.run ~topology:(of_digraph g) ~faulty:no_faults proto);
  (* inbox sorted by src, same-src in send order: ((0 + 3) * 7) * 2. *)
  check_int "closures applied in source order" 42 acc.(2);
  let seed : (int, int -> int) R.protocol =
    {
      initial = (fun _ -> 0);
      step =
        (fun ~round v a inbox ->
          (List.fold_left (fun a (_, f) -> f a) a inbox, sends_of ~round v));
      wants_step = (fun _ -> false);
    }
  in
  check_bool "seed implementation raised on this protocol" true
    (match R.run ~topology:g ~faulty:no_faults seed with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* B(d,n) as an implicit topology: the arithmetic edge test is the
   edge set of the materialized graph, and ids outside [0, dⁿ) are
   never edges (and never raise). *)
let test_implicit_topology () =
  List.iter
    (fun (d, n) ->
      let p = Debruijn.Word.params ~d ~n in
      let size = p.Debruijn.Word.size in
      let g = Debruijn.Graph.b p in
      for u = 0 to size - 1 do
        for v = 0 to size - 1 do
          if Debruijn.Word.is_edge p u v <> D.mem_edge g u v then
            Alcotest.failf "B(%d,%d): %d -> %d" d n u v
        done
      done;
      List.iter
        (fun (u, v) ->
          check_bool (Printf.sprintf "(%d, %d) out of range" u v) false (Debruijn.Word.is_edge p u v))
        [ (-1, 0); (0, -1); (size, 0); (0, size); (size - 1, size); (min_int, 0); (0, max_int); (max_int, max_int) ])
    [ (2, 5); (3, 3) ]

(* The seed-era name for the worklist engine's agreement with the
   seed on a 2048-node B(2,11): the flood runs natively on the implicit
   topology and as a list protocol on the seed engine over the
   materialized graph. *)
let test_parallel_matches_sequential () =
  let p = Debruijn.Word.params ~d:2 ~n:11 in
  let g = Debruijn.Graph.b p in
  let faulty v = v mod 97 = 3 in
  let dist, proto = flood_protocol 1 ~succs:(Debruijn.Word.successors p) p.Debruijn.Word.size in
  let a = S.run ~topology:(S.de_bruijn p) ~faulty proto in
  let b = R.run ~topology:g ~faulty (flood_list 1 g) in
  Alcotest.(check (array int)) "states" b.R.states dist;
  check_int "rounds" (b.R.rounds + 1) a.S.rounds;
  check_int "delivered" b.R.delivered a.S.delivered;
  check_int "max_inflight" b.R.max_inflight a.S.max_inflight;
  check_int "max_port_load" b.R.max_port_load a.S.max_port_load

(* ------------------------------------------------------------------ *)
(* qcheck: the worklist engine agrees with the seed full-scan engine on
   random protocols over random B(d,n) topologies with random faults.
   The protocols are seed-style list protocols: the seed engine runs
   them directly, the worklist engine through [Oracles.Netsim_lists],
   on the implicit B(d,n).

   The random protocol family is a deterministic "gossip" machine: the
   state is an accumulator folded over received (src, payload) pairs, a
   node re-broadcasts to a pseudo-randomly chosen subset of its
   out-neighbors while its hop budget lasts, and some nodes keep
   requesting steps (wants_step) for a bounded number of extra rounds.
   Every behavior is a pure function of (protocol seed, round, node,
   state, inbox), so both engines see the same protocol; each node
   sends at most one message per neighbor per round, so the seed's
   (src, payload) inbox order coincides with the fixed by-src order. *)

let mix seed a b c =
  (* splitmix-style avalanche, cheap and deterministic *)
  let h = ref (seed lxor (a * 0x9e3779b9) lxor (b * 0x85ebca6b) lxor (c * 0xc2b2ae35)) in
  h := (!h lxor (!h lsr 16)) * 0x45d9f3b land max_int;
  h := (!h lxor (!h lsr 13)) * 0x45d9f3b land max_int;
  !h lxor (!h lsr 16)

type gossip = { acc : int; steps : int }

let gossip_protocol pseed g hop_budget eager_budget : (gossip, int) R.protocol =
  {
    initial = (fun v -> { acc = mix pseed v 0 0; steps = 0 });
    step =
      (fun ~round v st inbox ->
        let acc =
          List.fold_left (fun a (src, m) -> mix pseed a src m) st.acc inbox
        in
        let st = { acc; steps = st.steps + 1 } in
        let sends =
          if round < hop_budget then
            List.filter_map
              (fun w ->
                if mix pseed acc w round land 3 <> 0 then
                  Some (w, mix pseed v w round land 0xffff)
                else None)
              (D.succs g v)
          else []
        in
        (st, sends));
    wants_step =
      (fun st -> st.steps <= eager_budget && st.acc land 7 = 0);
  }

let agreement_prop (d, n, pseed, nfaults) =
  let p = Debruijn.Word.params ~d ~n in
  let g = Debruijn.Graph.b p in
  let faults =
    List.init nfaults (fun i -> mix pseed i 1 2 mod p.Debruijn.Word.size)
  in
  let faulty v = List.mem v faults in
  let hop_budget = 1 + (pseed mod (2 * n)) in
  let eager_budget = pseed mod 3 in
  let proto = gossip_protocol pseed g hop_budget eager_budget in
  let states, a = L.run ~max_rounds:1000 ~topology:(S.de_bruijn p) ~faulty proto in
  let b = R.run ~max_rounds:1000 ~topology:g ~faulty proto in
  let live_exists =
    List.exists (fun v -> not (faulty v)) (Debruijn.Word.all p)
  in
  states = b.R.states
  && a.S.delivered = b.R.delivered
  && a.S.max_inflight = b.R.max_inflight
  && a.S.max_port_load = b.R.max_port_load
  && (if live_exists then a.S.rounds = b.R.rounds + 1 else a.S.rounds = 0)
  && Array.length a.S.trace = a.S.rounds

let qcheck_agreement =
  let gen =
    QCheck.Gen.(
      let* d = int_range 2 4 in
      let* n = int_range 1 4 in
      let* pseed = int_range 1 (1 lsl 28) in
      let size = int_of_float (float_of_int d ** float_of_int n) in
      let* nfaults = int_range 0 (max 1 (size / 2)) in
      return (d, n, pseed, nfaults))
  in
  QCheck.Test.make ~count:300
    ~name:"worklist engine = seed full-scan engine (random gossip protocols)"
    (QCheck.make gen) agreement_prop

let qcheck_parallel_agreement =
  (* The seed-era name for the same property on B(2,11), the size of
     the former parallel-stepping check. *)
  let gen =
    QCheck.Gen.(
      let* pseed = int_range 1 (1 lsl 28) in
      let* nfaults = int_range 0 40 in
      return (2, 11, pseed, nfaults))
  in
  let prop (d, n, pseed, nfaults) =
    let p = Debruijn.Word.params ~d ~n in
    let g = Debruijn.Graph.b p in
    let faults =
      List.init nfaults (fun i -> mix pseed i 1 2 mod p.Debruijn.Word.size)
    in
    let faulty v = List.mem v faults in
    let proto = gossip_protocol pseed g (1 + (pseed mod 6)) (pseed mod 3) in
    let states, a = L.run ~max_rounds:1000 ~topology:(S.de_bruijn p) ~faulty proto in
    let b = R.run ~max_rounds:1000 ~topology:g ~faulty proto in
    states = b.R.states && a.S.delivered = b.R.delivered
    && a.S.rounds = b.R.rounds + 1
  in
  QCheck.Test.make ~count:20 ~name:"parallel stepping is bit-identical"
    (QCheck.make gen) prop

let () =
  Alcotest.run "netsim"
    [
      ( "simulator",
        [
          Alcotest.test_case "flood on ring" `Quick test_flood_ring;
          Alcotest.test_case "flood matches BFS" `Quick test_flood_matches_bfs;
          Alcotest.test_case "fault blocks flood" `Quick test_flood_with_fault;
          Alcotest.test_case "faulty source is silent" `Quick test_faulty_source_sends_nothing;
          Alcotest.test_case "all faulty: zero rounds" `Quick test_all_faulty;
          Alcotest.test_case "illegal send" `Quick test_illegal_send;
          Alcotest.test_case "illegal send carries round, src, dst" `Quick test_illegal_send_exact;
          Alcotest.test_case "divergence guard" `Quick test_divergence_guard;
          Alcotest.test_case "round accounting" `Quick test_round_accounting;
          Alcotest.test_case "max_rounds budget is exact" `Quick test_max_rounds_budget;
          Alcotest.test_case "message accounting" `Quick test_message_accounting;
          Alcotest.test_case "multi-port star" `Quick test_multiport;
          Alcotest.test_case "inbox sorted" `Quick test_inbox_sorted_by_source;
          Alcotest.test_case "same-source send order" `Quick test_same_source_keeps_send_order;
          Alcotest.test_case "inbox reads stay in the slice" `Quick test_inbox_bounds;
          Alcotest.test_case "functional payloads" `Quick test_functional_payload;
          Alcotest.test_case "parallel = sequential" `Quick test_parallel_matches_sequential;
          Alcotest.test_case "implicit B(d,n) = Graph.b" `Quick test_implicit_topology;
        ] );
      ( "agreement",
        [
          QCheck_alcotest.to_alcotest qcheck_agreement;
          QCheck_alcotest.to_alcotest qcheck_parallel_agreement;
        ] );
    ]
