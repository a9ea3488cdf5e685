(* Tests for Ffc.Live: the incremental ring-repair engine.

   The load-bearing property is the churn oracle: after EVERY event of a
   random fault/repair sequence, the engine's entire observable state —
   membership, root, |B*|, ecc, BFS distances, the successor map and the
   materialized ring — must be bit-identical to a full Embed.embed
   recompute on the current fault set, with and without a shared
   workspace, and against a recompute passed the ignored ~domains:2. *)

module W = Debruijn.Word
module B = Ffc.Bstar
module E = Ffc.Embed
module Sp = Ffc.Spanning
module Lv = Ffc.Live

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* the oracle *)

let oracle_agrees ?(materialize = true) ?domains (live : Lv.t) p faults =
  match E.embed ~root_hint:1 ?domains p ~faults with
  | None -> Lv.is_empty live
  | Some e ->
      let b = e.E.bstar in
      Lv.root live = b.B.root
      && Lv.size live = b.B.size
      && Lv.ecc live = b.B.ecc
      && (let ok = ref true in
          for v = 0 to p.W.size - 1 do
            if Lv.in_bstar live v <> (b.B.in_bstar.{v} <> 0) then ok := false;
            if Lv.successor live v <> e.E.successor.{v} then ok := false;
            if b.B.in_bstar.{v} <> 0 && Lv.dist live v <> Int32.to_int b.B.dist.{v}
            then
              ok := false
          done;
          !ok)
      && ((not materialize) || Lv.ring live = Some e.E.cycle)

(* One churn sequence: a birth-death chain around [target] outstanding
   faults, oracle-checked after every event.  Returns false on the
   first divergence (or rejected event).  [?domains] goes to the
   oracle's recompute, which ignores it. *)
let churn_agrees ?ws ?domains p ~seed ~events ~target =
  let rng = Util.Rng.create seed in
  let live = Lv.create ~root_hint:1 ?ws p ~faults:[] in
  let active = ref [] in
  let nf = ref 0 in
  let ok = ref true in
  let e = ref 0 in
  while !ok && !e < events do
    let do_fault =
      !nf < p.W.size && (!nf = 0 || Util.Rng.int rng (target + !nf) < target)
    in
    let ev =
      if do_fault then begin
        let v = ref (Util.Rng.int rng p.W.size) in
        while Lv.is_faulty live !v do
          v := Util.Rng.int rng p.W.size
        done;
        active := !v :: !active;
        incr nf;
        Lv.Fault !v
      end
      else begin
        let i = Util.Rng.int rng !nf in
        let v = List.nth !active i in
        active := List.filteri (fun j _ -> j <> i) !active;
        decr nf;
        Lv.Repair v
      end
    in
    (match Lv.apply live ev with
    | Ok _ -> ()
    | Error _ -> ok := false);
    if !ok then ok := oracle_agrees ?domains live p !active;
    incr e
  done;
  !ok

(* ------------------------------------------------------------------ *)
(* unit tests *)

let p33 = W.params ~d:3 ~n:3

let test_create_matches_oracle () =
  let faults = [ W.of_string p33 "020"; W.of_string p33 "112" ] in
  let live = Lv.create ~root_hint:1 p33 ~faults in
  check_bool "initial state = oracle" true (oracle_agrees live p33 faults);
  check_int "21 nodes" 21 (Lv.size live);
  check_int "two faults" 2 (Lv.fault_count live);
  check_bool "faults listed" true (Lv.current_faults live = List.sort compare faults)

let test_invalid_events_rejected () =
  let live = Lv.create ~root_hint:1 p33 ~faults:[] in
  (match Lv.apply live (Lv.Repair 3) with
  | Error (Lv.Not_faulty 3) -> ()
  | _ -> Alcotest.fail "repair of a healthy node must be rejected");
  (match Lv.apply live (Lv.Fault (-1)) with
  | Error (Lv.Out_of_range -1) -> ()
  | _ -> Alcotest.fail "negative node must be rejected");
  (match Lv.apply live (Lv.Fault p33.W.size) with
  | Error (Lv.Out_of_range _) -> ()
  | _ -> Alcotest.fail "overflowing node must be rejected");
  check_bool "rejections touch nothing" true (oracle_agrees live p33 []);
  (match Lv.apply live (Lv.Fault 5) with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "healthy fault accepted");
  (match Lv.apply live (Lv.Fault 5) with
  | Error (Lv.Already_faulty 5) -> ()
  | _ -> Alcotest.fail "fault of a dead node must be rejected");
  let s = Lv.stats live in
  check_int "four rejections" 4 s.Lv.rejected;
  check_int "one accepted event" 1 s.Lv.events;
  check_bool "state still = oracle" true (oracle_agrees live p33 [ 5 ])

let test_necklace_mate_is_unchanged () =
  (* 001 and 010 share a necklace: the second fault changes no
     membership, so the engine must absorb it as pure bookkeeping — and
     the repair of only one of them must leave B* unchanged too. *)
  let live = Lv.create ~root_hint:1 p33 ~faults:[] in
  let v1 = W.of_string p33 "001" and v2 = W.of_string p33 "010" in
  (match Lv.apply live (Lv.Fault v1) with
  | Ok Lv.Recomputed -> ()
  | Ok _ -> Alcotest.fail "killing the hint's necklace must recompute"
  | Error _ -> Alcotest.fail "rejected");
  (match Lv.apply live (Lv.Fault v2) with
  | Ok Lv.Unchanged -> ()
  | _ -> Alcotest.fail "necklace mate must be Unchanged");
  check_bool "after mates" true (oracle_agrees live p33 [ v1; v2 ]);
  (match Lv.apply live (Lv.Repair v2) with
  | Ok Lv.Unchanged -> ()
  | _ -> Alcotest.fail "partial repair must be Unchanged");
  check_bool "after partial repair" true (oracle_agrees live p33 [ v1 ]);
  let s = Lv.stats live in
  check_int "events" 3 s.Lv.events;
  check_int "patched+recomputed+unchanged = events" s.Lv.events
    (s.Lv.patched + s.Lv.recomputed + s.Lv.unchanged)

let test_fault_far_from_root_patches () =
  (* B(2,8): faulting a high node away from root 1's necklace must take
     the incremental path and still agree with the oracle. *)
  let p = W.params ~d:2 ~n:8 in
  let live = Lv.create ~root_hint:1 p ~faults:[] in
  let v = W.of_string p "11010110" in
  (match Lv.apply live (Lv.Fault v) with
  | Ok Lv.Patched -> ()
  | Ok Lv.Recomputed -> Alcotest.fail "expected the incremental path"
  | Ok Lv.Unchanged -> Alcotest.fail "a live necklace died: not Unchanged"
  | Error _ -> Alcotest.fail "rejected");
  check_bool "patched state = oracle" true (oracle_agrees live p [ v ]);
  (match Lv.apply live (Lv.Repair v) with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "repair rejected");
  check_bool "repaired state = oracle" true (oracle_agrees live p []);
  check_int "ring is Hamiltonian again" p.W.size (Lv.ring_length live)

let test_empty_to_full_cycle () =
  (* Kill every necklace of B(2,2), then revive: the engine must pass
     through the empty state and come back. *)
  let p = W.params ~d:2 ~n:2 in
  let live = Lv.create ~root_hint:1 p ~faults:[ 0; 1; 3 ] in
  check_bool "empty" true (Lv.is_empty live);
  check_bool "no ring" true (Lv.ring live = None);
  check_bool "empty = oracle" true (oracle_agrees live p [ 0; 1; 3 ]);
  (match Lv.apply live (Lv.Repair 1) with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "repair from empty rejected");
  check_bool "revived = oracle" true (oracle_agrees live p [ 0; 3 ])

let test_heap_footprint () =
  (* Every dⁿ- and dⁿ⁻¹-sized table of a [Live.t] is off-heap, so the
     heap it reaches stays far below one word per node. *)
  let p = W.params ~d:2 ~n:16 in
  let live = Lv.create ~root_hint:1 p ~faults:[] in
  let words = Obj.reachable_words (Obj.repr live) in
  if words >= p.W.size / 16 then
    Alcotest.failf "a Live.t of B(2,16) reaches %d heap words" words

(* A churn sequence generated up front from a shadow fault set, with
   the birth-death rule of [churn_agrees], so that applying it runs
   nothing but [Live.apply]. *)
let churn_events p ~seed ~count ~target =
  let rng = Util.Rng.create seed in
  let faulty = Array.make p.W.size false in
  let active = Array.make count 0 in
  let nf = ref 0 in
  Array.init count (fun _ ->
      if !nf < p.W.size && (!nf = 0 || Util.Rng.int rng (target + !nf) < target)
      then begin
        let v = ref (Util.Rng.int rng p.W.size) in
        while faulty.(!v) do
          v := Util.Rng.int rng p.W.size
        done;
        faulty.(!v) <- true;
        active.(!nf) <- !v;
        incr nf;
        Lv.Fault !v
      end
      else begin
        let i = Util.Rng.int rng !nf in
        let v = active.(i) in
        decr nf;
        active.(i) <- active.(!nf);
        faulty.(v) <- false;
        Lv.Repair v
      end)

let test_event_allocation_ceiling () =
  (* The event path reads and writes 32-bit cells and mark bytes that
     the compiler keeps unboxed; one boxed [int32] per touched node
     (three words each) would show here.  Mean minor words per accepted
     event on a warm engine with a workspace, fallbacks included; each
     ceiling is about twice the figure the engine reads (at n = 10 and
     n = 5, 83 and 57 words). *)
  List.iter
    (fun (d, n, ceiling) ->
      let p = W.params ~d ~n in
      let warm = 200 and count = 400 in
      let evs = churn_events p ~seed:11 ~count:(warm + count) ~target:4 in
      let live = Lv.create ~root_hint:1 ~ws:(Ffc.Workspace.create p) p ~faults:[] in
      for i = 0 to warm - 1 do
        ignore (Lv.apply live evs.(i))
      done;
      let before = (Lv.stats live).Lv.events in
      let m0 = Gc.minor_words () in
      for i = warm to warm + count - 1 do
        ignore (Lv.apply live evs.(i))
      done;
      let words = Gc.minor_words () -. m0 in
      let accepted = (Lv.stats live).Lv.events - before in
      check_int "every event accepted" count accepted;
      let per_event = words /. float accepted in
      if per_event > ceiling then
        Alcotest.failf "B(%d,%d): %.1f minor words per event, ceiling %.0f" d n
          per_event ceiling)
    [ (2, 10, 160.); (3, 5, 110.) ]

let test_stats_accounting () =
  let p = W.params ~d:2 ~n:6 in
  let live = Lv.create ~root_hint:1 p ~faults:[] in
  check_bool "one churn pass" true
    (churn_agrees p ~seed:42 ~events:40 ~target:4);
  ignore live

(* ------------------------------------------------------------------ *)
(* crash-path hardening (the PR's satellite): malformed pipeline inputs
   surface as Pipeline_error.Error, not Failure/assert *)

let test_malformed_bstar_typed_error () =
  (* B* records whose [faults] list disagrees with their membership
     arrays: one node of the fault-free B(2,3) or B(3,3) membership is
     declared faulty.  The probe then kills that node's necklace; the
     rest can still close into a shorter ring, or not close at all when
     the root's necklace dies.  Both engines must refuse every such
     record with the typed error under their own stage name — never a
     bare [Failure], an out-of-bounds crash or a ring that misses B*. *)
  List.iter
    (fun (d, n) ->
      let p = W.params ~d ~n in
      let healthy = Option.get (B.compute ~root_hint:1 p ~faults:[]) in
      for x = 0 to p.W.size - 1 do
        let mangled = { healthy with B.faults = [ x ] } in
        let refuses stage run =
          match run mangled with
          | () -> Alcotest.failf "%s returned a ring for B(%d,%d) with faults = [%d]" stage d n x
          | exception Ffc.Pipeline_error.Error err ->
              Alcotest.(check string) "stage" stage err.Ffc.Pipeline_error.stage
        in
        refuses "Distributed" (fun b -> ignore (Ffc.Distributed.run b));
        refuses "Selftimed" (fun b -> ignore (Ffc.Selftimed.run b))
      done)
    [ (2, 3); (3, 3) ];
  (* Membership mangling: one node of the fault-free B(2,3), B(2,5) or
     B(3,3) leaves [in_bstar] while its necklace-mates stay.  The batch
     pipeline must refuse such a record with the typed error or return a
     ring that still verifies (a dropped one-node necklace leaves a
     well-formed B* behind) — never an [Assert_failure]. *)
  List.iter
    (fun (d, n) ->
      let p = W.params ~d ~n in
      let healthy = Option.get (B.compute ~root_hint:1 p ~faults:[]) in
      for x = 0 to p.W.size - 1 do
        let in_bstar = Graphlib.Flatarr.Byte.make p.W.size 0 in
        Bigarray.Array1.blit healthy.B.in_bstar in_bstar;
        in_bstar.{x} <- 0;
        match E.of_bstar { healthy with B.in_bstar; size = healthy.B.size - 1 } with
        | e ->
            if not (E.verify e) then
              Alcotest.failf "Embed returned a bad ring for B(%d,%d) without node %d" d n x
        | exception Ffc.Pipeline_error.Error _ -> ()
      done)
    [ (2, 3); (2, 5); (3, 3) ]

(* [dist] comes with the B* record, so a caller that drops a chosen Y's
   T′ parent from [in_bstar] afterwards leaves Y's parent rule pointing
   outside B*.  Spanning.build must refuse that with its typed error.
   Unchecked, T would name the parent's necklace (or −1 once that
   necklace is gone, which Spanning.modify reads as a parentless label
   class), and the failure would only surface as an "Embed" ring
   error. *)
let test_tprime_parent_outside_bstar () =
  List.iter
    (fun (d, n) ->
      let p = W.params ~d ~n in
      let healthy = Option.get (B.compute ~root_hint:1 p ~faults:[]) in
      let dist = healthy.B.dist in
      let tree = Sp.build (Ffc.Adjacency.build healthy) in
      for i = 0 to Array.length tree.Sp.adj.Ffc.Adjacency.reps - 1 do
        if i <> tree.Sp.root_idx then begin
          let y = tree.Sp.chosen.{i} in
          let par =
            Sp.find_parent dist (p.W.size / d) d (y / d) (Int32.to_int dist.{y}) 0
          in
          let in_bstar = Graphlib.Flatarr.Byte.make p.W.size 0 in
          Bigarray.Array1.blit healthy.B.in_bstar in_bstar;
          in_bstar.{par} <- 0;
          match E.of_bstar { healthy with B.in_bstar; size = healthy.B.size - 1 } with
          | _ ->
              Alcotest.failf "B(%d,%d): a ring without node %d, the T' parent of %d" d n
                par y
          | exception Ffc.Pipeline_error.Error err ->
              Alcotest.(check string) "stage" "Spanning" err.Ffc.Pipeline_error.stage
        end
      done)
    [ (2, 5); (3, 3) ]

let test_campaign_records_errors () =
  (* The campaign aggregates typed errors instead of crashing; on
     well-formed inputs the count is zero. *)
  let pts = Ffc.Campaign.run ~trials:5 ~fs:[ 1; 2 ] ~d:3 ~n:3 () in
  List.iter
    (fun (pt : Ffc.Campaign.point) -> check_int "no errors" 0 pt.Ffc.Campaign.errors)
    pts

(* ------------------------------------------------------------------ *)
(* churn campaign determinism *)

let deterministic_fields (c : Ffc.Campaign.churn_point) =
  ( c.Ffc.Campaign.target_f,
    c.Ffc.Campaign.ctrials,
    c.Ffc.Campaign.events,
    c.Ffc.Campaign.cfaults,
    c.Ffc.Campaign.crepairs,
    c.Ffc.Campaign.patched,
    c.Ffc.Campaign.recomputed,
    c.Ffc.Campaign.cunchanged,
    c.Ffc.Campaign.cerrors,
    c.Ffc.Campaign.mean_ring_length,
    c.Ffc.Campaign.min_ring_length,
    c.Ffc.Campaign.mean_live_faults )

let test_churn_campaign_deterministic () =
  let run ?domains ?reuse () =
    List.map deterministic_fields
      (Ffc.Campaign.churn ?domains ?reuse ~trials:4 ~events:30
         ~targets:[ 1; 3 ] ~d:3 ~n:3 ())
  in
  let base = run () in
  check_bool "domains:2 bit-identical" true (base = run ~domains:2 ());
  (* more domains than trials: one worker per trial *)
  check_bool "domains:8 bit-identical" true (base = run ~domains:8 ());
  check_bool "reuse:false bit-identical" true (base = run ~reuse:false ());
  List.iter
    (fun (_, _, events, cf, cr, pat, rc, un, errs, _, _, _) ->
      check_int "no errors" 0 errs;
      check_int "events partition" (4 * events) (cf + cr);
      check_int "outcomes partition" (4 * events) (pat + rc + un))
    base

(* ------------------------------------------------------------------ *)
(* properties *)

let qsuite =
  let open QCheck in
  let scenario =
    Gen.(
      oneofl [ (2, 4); (2, 5); (2, 6); (2, 7); (3, 3); (3, 4); (4, 2); (4, 3); (5, 2) ]
      >>= fun (d, n) ->
      int_range 1 5 >>= fun target ->
      int_range 0 1000000 >>= fun seed -> return (d, n, target, seed))
  in
  let events = 25 in
  [
    Test.make ~name:"live churn = batch recompute after every event" ~count:120
      (make scenario) (fun (d, n, target, seed) ->
        let p = W.params ~d ~n in
        churn_agrees p ~seed ~events ~target);
    (* One workspace per (d, n), shared across the whole run: the
       engine's batch fallbacks must coexist with arena reuse. *)
    (let cache = Hashtbl.create 8 in
     Test.make ~name:"live churn with shared workspace = fresh" ~count:80
       (make scenario) (fun (d, n, target, seed) ->
         let p = W.params ~d ~n in
         let ws =
           match Hashtbl.find_opt cache (d, n) with
           | Some ws -> ws
           | None ->
               let ws = Ffc.Workspace.create p in
               Hashtbl.add cache (d, n) ws;
               ws
         in
         churn_agrees ~ws p ~seed ~events ~target));
    Test.make ~name:"live churn at domains:2 = sequential" ~count:30
      (make scenario) (fun (d, n, target, seed) ->
        let p = W.params ~d ~n in
        churn_agrees ~domains:2 p ~seed ~events ~target);
  ]

let () =
  Alcotest.run "live"
    [
      ( "engine",
        [
          Alcotest.test_case "create matches oracle" `Quick test_create_matches_oracle;
          Alcotest.test_case "invalid events rejected" `Quick test_invalid_events_rejected;
          Alcotest.test_case "necklace mates are Unchanged" `Quick
            test_necklace_mate_is_unchanged;
          Alcotest.test_case "far fault takes the patched path" `Quick
            test_fault_far_from_root_patches;
          Alcotest.test_case "empty and back" `Quick test_empty_to_full_cycle;
          Alcotest.test_case "stats accounting" `Quick test_stats_accounting;
          Alcotest.test_case "heap footprint" `Quick test_heap_footprint;
          Alcotest.test_case "per-event allocation ceiling" `Quick
            test_event_allocation_ceiling;
        ] );
      ( "crash-paths",
        [
          Alcotest.test_case "malformed B* raises the typed error" `Quick
            test_malformed_bstar_typed_error;
          Alcotest.test_case "T' parent outside B* raises the typed error" `Quick
            test_tprime_parent_outside_bstar;
          Alcotest.test_case "campaign records errors" `Quick test_campaign_records_errors;
        ] );
      ( "churn-campaign",
        [
          Alcotest.test_case "deterministic across domains/reuse" `Quick
            test_churn_campaign_deterministic;
        ] );
      ("properties", List.map (fun t -> QCheck_alcotest.to_alcotest ~long:false t) qsuite);
    ]
