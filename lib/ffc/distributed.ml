module W = Debruijn.Word
module Nk = Debruijn.Necklace
module S = Netsim.Simulator

type stats = {
  probe_rounds : int;
  broadcast_rounds : int;
  choose_rounds : int;
  exchange_rounds : int;
  membership_rounds : int;
  total_rounds : int;
  messages : int;
  port_load : int;
  phase_traces : (string * S.round_metrics array) list;
}

type t = {
  bstar : Bstar.t;
  successor : int array;
  cycle : int array;
  stats : stats;
}

(* ------------------------------------------------------------------ *)
(* Phase 1: necklace probe. *)

type probe_msg = { origin : int; hops : int }

let probe_phase ?domains ~faulty (bstar : Bstar.t) =
  let p = bstar.Bstar.p in
  let proto : (bool, probe_msg) S.protocol =
    {
      initial = (fun _ -> false);
      step =
        (fun ~round v live inbox ->
          let live = ref live in
          let sends = ref [] in
          if round = 0 then sends := [ (W.rotl p v, { origin = v; hops = 1 }) ];
          List.iter
            (fun (_, m) ->
              if m.origin = v then live := true
              else if m.hops < p.W.n then
                sends := (W.rotl p v, { origin = m.origin; hops = m.hops + 1 }) :: !sends)
            inbox;
          (!live, !sends));
      wants_step = (fun _ -> false);
    }
  in
  S.run ?domains ~topology:(Lazy.force bstar.Bstar.graph) ~faulty proto

let live_necklace_flags bstar =
  let r = probe_phase ~faulty:(Bstar.fault_probe bstar) bstar in
  (r.S.states, r.S.rounds)

(* ------------------------------------------------------------------ *)
(* Phase 2: broadcast from R; fixes BFS distance and T′ parent. *)

type bcast_state = { dist : int; parent : int }

let broadcast_phase ?domains ~faulty (bstar : Bstar.t) (live : bool array) =
  let p = bstar.Bstar.p in
  let root = bstar.Bstar.root in
  let proto : (bcast_state, int) S.protocol =
    {
      initial = (fun v -> { dist = (if v = root then 0 else -1); parent = -1 });
      step =
        (fun ~round v st inbox ->
          if not live.(v) then (st, [])
          else if round = 0 && v = root then
            (st, List.map (fun s -> (s, 0)) (W.successors p v))
          else if st.dist >= 0 then (st, [])
          else
            match inbox with
            | [] -> (st, [])
            | (src0, d0) :: _ ->
                (* All simultaneous receipts carry the same distance;
                   the inbox is sorted so the head is the minimal
                   sender — exactly the thesis's tie-break. *)
                let st = { dist = d0 + 1; parent = src0 } in
                (st, List.map (fun s -> (s, st.dist)) (W.successors p v)));
      wants_step = (fun _ -> false);
    }
  in
  S.run ?domains ~topology:(Lazy.force bstar.Bstar.graph) ~faulty proto

(* ------------------------------------------------------------------ *)
(* Phase 3: elect the earliest-reached node Y of each necklace. *)

type candidate = { cdist : int; cnode : int; cparent : int }
type choose_msg = { cand : candidate; chops : int }

let better a b =
  if a.cdist <> b.cdist then a.cdist < b.cdist else a.cnode < b.cnode

let choose_phase ?domains ~faulty (bstar : Bstar.t) (bc : bcast_state array) =
  let p = bstar.Bstar.p in
  let participates v = bc.(v).dist >= 0 || v = bstar.Bstar.root in
  let own v = { cdist = bc.(v).dist; cnode = v; cparent = bc.(v).parent } in
  let proto : (candidate option, choose_msg) S.protocol =
    {
      initial = (fun v -> if participates v then Some (own v) else None);
      step =
        (fun ~round v st inbox ->
          match st with
          | None -> (None, [])
          | Some best ->
              let best = ref best in
              let sends = ref [] in
              if round = 0 then
                sends := [ (W.rotl p v, { cand = own v; chops = 1 }) ];
              List.iter
                (fun (_, m) ->
                  if better m.cand !best then best := m.cand;
                  if m.chops < p.W.n then
                    sends := (W.rotl p v, { cand = m.cand; chops = m.chops + 1 }) :: !sends)
                inbox;
              (Some !best, !sends));
      wants_step = (fun _ -> false);
    }
  in
  S.run ?domains ~topology:(Lazy.force bstar.Bstar.graph) ~faulty proto

(* ------------------------------------------------------------------ *)
(* Phases 4+5: exchange T_w announcements, then circulate membership. *)

type entry = { digit : int; rep : int }
type announce = { a_digit : int; child_rep : int; parent_rep : int }

(* fragment: label w → membership entries for a T_w this necklace is in *)
type fragment = (int * entry list) list

(* Declaration-order (digit, rep) lexicographic — the order polymorphic
   [compare] used to give, so merged fragments stay bit-identical. *)
let entry_compare a b =
  match Int.compare a.digit b.digit with 0 -> Int.compare a.rep b.rep | c -> c

let merge_entries es fs =
  List.sort_uniq entry_compare (es @ fs)

let merge_fragment (frag : fragment) w entries : fragment =
  let existing = Option.value ~default:[] (List.assoc_opt w frag) in
  (w, merge_entries existing entries) :: List.remove_assoc w frag

let merge_fragments (a : fragment) (b : fragment) : fragment =
  List.fold_left (fun acc (w, es) -> merge_fragment acc w es) a b

let exchange_phase ?domains ~faulty (bstar : Bstar.t) (chosen : candidate option array) =
  let p = bstar.Bstar.p in
  let root_rep = Nk.canonical p bstar.Bstar.root in
  let proto : (fragment, announce) S.protocol =
    {
      initial = (fun _ -> []);
      step =
        (fun ~round v frag inbox ->
          match chosen.(v) with
          | None -> (frag, [])
          | Some best ->
              let my_rep = Nk.canonical p v in
              let y = best.cnode in
              let sends = ref [] in
              let frag = ref frag in
              (if round = 0 then begin
                 (* The exit node αw = π⁻¹(Y) of each non-root necklace
                    announces to all its successors wγ. *)
                 if my_rep <> root_rep && W.rotl p v = y then begin
                   let parent_rep = Nk.canonical p best.cparent in
                   let msg =
                     { a_digit = W.first_digit p v; child_rep = my_rep; parent_rep }
                   in
                   sends := List.map (fun s -> (s, msg)) (W.successors p v)
                 end
               end);
              List.iter
                (fun (_, m) ->
                  let w = W.prefix p v in
                  let as_parent = m.parent_rep = my_rep in
                  let as_child = my_rep <> root_rep && v = y in
                  if as_parent || as_child then begin
                    let entries = [ { digit = m.a_digit; rep = m.child_rep } ] in
                    (* Self entry: in both roles the local digit is the
                       last digit of the receiving node wγ. *)
                    let entries = { digit = W.last_digit p v; rep = my_rep } :: entries in
                    (* A child also records its parent's entry. *)
                    let entries =
                      if as_child then
                        { digit = W.first_digit p best.cparent;
                          rep = Nk.canonical p best.cparent }
                        :: entries
                      else entries
                    in
                    frag := merge_fragment !frag w entries
                  end)
                inbox;
              (!frag, !sends));
      wants_step = (fun _ -> false);
    }
  in
  S.run ?domains ~topology:(Lazy.force bstar.Bstar.graph) ~faulty proto

type member_msg = { mfrag : fragment; mhops : int }

let membership_phase ?domains ~faulty (bstar : Bstar.t) (chosen : candidate option array)
    (frags : fragment array) =
  let p = bstar.Bstar.p in
  let proto : (fragment, member_msg) S.protocol =
    {
      initial = (fun v -> frags.(v));
      step =
        (fun ~round v frag inbox ->
          match chosen.(v) with
          | None -> (frag, [])
          | Some _ ->
              let frag = ref frag in
              let sends = ref [] in
              if round = 0 && not (List.is_empty frags.(v)) then
                sends := [ (W.rotl p v, { mfrag = frags.(v); mhops = 1 }) ];
              List.iter
                (fun (_, m) ->
                  frag := merge_fragments !frag m.mfrag;
                  if m.mhops < p.W.n then
                    sends := (W.rotl p v, { mfrag = m.mfrag; mhops = m.mhops + 1 }) :: !sends)
                inbox;
              (!frag, !sends));
      wants_step = (fun _ -> false);
    }
  in
  S.run ?domains ~topology:(Lazy.force bstar.Bstar.graph) ~faulty proto

(* ------------------------------------------------------------------ *)
(* Local successor computation and the driver. *)

let successor_of (p : W.params) v (frag : fragment) =
  let w = W.suffix p v in
  match List.assoc_opt w frag with
  | None -> W.rotl p v
  | Some entries ->
      let my_rep = Nk.canonical p v in
      let sorted = List.sort (fun a b -> Int.compare a.rep b.rep) entries in
      let arr = Array.of_list sorted in
      let k = Array.length arr in
      let rec find i = if arr.(i).rep = my_rep then i else find (i + 1) in
      let i = find 0 in
      let next = arr.((i + 1) mod k) in
      W.snoc p w next.digit

let run ?domains (bstar : Bstar.t) =
  let p = bstar.Bstar.p in
  (* One O(1) fault probe shared by all five phases: the simulator
     calls it once per node and once per send. *)
  let faulty = Bstar.fault_probe bstar in
  let r1 = probe_phase ?domains ~faulty bstar in
  let live = r1.S.states in
  let r2 = broadcast_phase ?domains ~faulty bstar live in
  let bc = r2.S.states in
  let r3 = choose_phase ?domains ~faulty bstar bc in
  let chosen = r3.S.states in
  let r4 = exchange_phase ?domains ~faulty bstar chosen in
  let r5 = membership_phase ?domains ~faulty bstar chosen r4.S.states in
  let frags = r5.S.states in
  let successor = Array.make p.W.size (-1) in
  for v = 0 to p.W.size - 1 do
    match chosen.(v) with
    | Some _ -> successor.(v) <- successor_of p v frags.(v)
    | None -> ()
  done;
  let cycle =
    match
      (* Ranged walk: a −1 successor (an unreached node) reads as
         non-closure rather than an out-of-bounds index. *)
      Graphlib.Cycle.of_successor_map_n ~n:p.W.size ~start:bstar.Bstar.root (fun v ->
          successor.(v))
    with
    | Some c -> c
    | None ->
        Pipeline_error.raise_error ~stage:"Distributed"
          "successor map did not close into a cycle"
  in
  let rs = [ r1.S.rounds; r2.S.rounds; r3.S.rounds; r4.S.rounds; r5.S.rounds ] in
  let stats =
    {
      probe_rounds = r1.S.rounds;
      broadcast_rounds = r2.S.rounds;
      choose_rounds = r3.S.rounds;
      exchange_rounds = r4.S.rounds;
      membership_rounds = r5.S.rounds;
      total_rounds = List.fold_left ( + ) 0 rs;
      messages =
        r1.S.delivered + r2.S.delivered + r3.S.delivered + r4.S.delivered
        + r5.S.delivered;
      port_load =
        List.fold_left max 0
          [
            r1.S.max_port_load; r2.S.max_port_load; r3.S.max_port_load;
            r4.S.max_port_load; r5.S.max_port_load;
          ];
      phase_traces =
        [
          ("probe", r1.S.trace); ("broadcast", r2.S.trace);
          ("choose", r3.S.trace); ("exchange", r4.S.trace);
          ("membership", r5.S.trace);
        ];
    }
  in
  { bstar; successor; cycle; stats }
