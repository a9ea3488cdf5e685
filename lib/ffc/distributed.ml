module W = Debruijn.Word
module Nk = Debruijn.Necklace
module S = Netsim.Simulator

module Node = struct
  type phase = Probe | Broadcast | Choose | Exchange | Membership
  type candidate = { cdist : int; cnode : int; cparent : int }
  type entry = { digit : int; rep : int }

  (* fragment: label w → membership entries for a T_w this necklace is in *)
  type fragment = (int * entry list) list

  type msg =
    | Relay of { origin : int; hops : int }  (* necklace probe *)
    | Flood of int  (* sender's distance *)
    | Nominate of { cand : candidate; chops : int }
    | Announce of { a_digit : int; child_rep : int; parent_rep : int }
    | Member of { mfrag : fragment; mhops : int }

  (* Mutable and updated in place: a step writes only the stepped
     node's record, which keeps parallel stepping race-free without a
     copy per update. *)
  type state = {
    mutable live : bool;  (* my necklace is fault-free *)
    mutable dist : int;  (* −1 = not reached *)
    mutable parent : int;
    mutable best : candidate option;  (* elected Y of my necklace *)
    mutable frag : fragment;
  }

  type t = { bstar : Bstar.t; nodes : state array }

  let create (bstar : Bstar.t) =
    let fresh _ = { live = false; dist = -1; parent = -1; best = None; frag = [] } in
    { bstar; nodes = Array.init bstar.Bstar.p.W.size fresh }

  let better a b = if a.cdist <> b.cdist then a.cdist < b.cdist else a.cnode < b.cnode

  let consider st cand =
    match st.best with
    | Some b when not (better cand b) -> ()
    | _ -> st.best <- Some cand

  (* The root necklace is recognizable locally: its elected candidate
     has no broadcast parent. *)
  let is_root_necklace best = best.cparent < 0

  (* Declaration-order (digit, rep) lexicographic — the order polymorphic
     [compare] used to give, so merged fragments stay bit-identical. *)
  let entry_compare a b =
    match Int.compare a.digit b.digit with 0 -> Int.compare a.rep b.rep | c -> c

  let merge_fragment frag w entries =
    let existing = Option.value ~default:[] (List.assoc_opt w frag) in
    (w, List.sort_uniq entry_compare (entries @ existing)) :: List.remove_assoc w frag

  let merge_fragments a b = List.fold_left (fun acc (w, es) -> merge_fragment acc w es) a b
  let to_all p v m sends = List.fold_left (fun acc s -> (s, m) :: acc) sends (W.successors p v)

  let receive (p : W.params) v st sends (src, m) =
    match m with
    | Relay { origin; hops } ->
        if origin = v then begin
          st.live <- true;
          sends
        end
        else if hops < p.W.n then (W.rotl p v, Relay { origin; hops = hops + 1 }) :: sends
        else sends
    | Flood d ->
        (* First receipt wins; the inbox is sorted by source, so of
           simultaneous arrivals the minimal sender becomes the parent —
           exactly the thesis's tie-break. *)
        if st.live && st.dist < 0 then begin
          st.dist <- d + 1;
          st.parent <- src;
          to_all p v (Flood (d + 1)) sends
        end
        else sends
    | Nominate { cand; chops } ->
        consider st cand;
        if chops < p.W.n then (W.rotl p v, Nominate { cand; chops = chops + 1 }) :: sends
        else sends
    | Announce { a_digit; child_rep; parent_rep } ->
        (match st.best with
        | None -> ()
        | Some best ->
            let my_rep = Nk.canonical p v in
            let as_child = (not (is_root_necklace best)) && v = best.cnode in
            if parent_rep = my_rep || as_child then begin
              (* Self entry: in both roles the local digit is the last
                 digit of the receiving node wγ.  A child also records
                 its parent's entry. *)
              let entries =
                { digit = W.last_digit p v; rep = my_rep }
                :: { digit = a_digit; rep = child_rep }
                ::
                (if as_child then
                   [ { digit = W.first_digit p best.cparent; rep = Nk.canonical p best.cparent } ]
                 else [])
              in
              st.frag <- merge_fragment st.frag (W.prefix p v) entries
            end);
        sends
    | Member { mfrag; mhops } ->
        st.frag <- merge_fragments st.frag mfrag;
        if mhops < p.W.n then (W.rotl p v, Member { mfrag; mhops = mhops + 1 }) :: sends
        else sends

  let open_phase (bstar : Bstar.t) phase v st sends =
    let p = bstar.Bstar.p in
    match phase with
    | Probe -> (W.rotl p v, Relay { origin = v; hops = 1 }) :: sends
    | Broadcast ->
        if v = bstar.Bstar.root && st.live then begin
          st.dist <- 0;
          to_all p v (Flood 0) sends
        end
        else sends
    | Choose ->
        if st.live && st.dist >= 0 then begin
          let cand = { cdist = st.dist; cnode = v; cparent = st.parent } in
          consider st cand;
          (W.rotl p v, Nominate { cand; chops = 1 }) :: sends
        end
        else sends
    | Exchange -> (
        (* The exit node αw = π⁻¹(Y) of each non-root necklace announces
           to all its successors wγ. *)
        match st.best with
        | Some best when (not (is_root_necklace best)) && W.rotl p v = best.cnode ->
            let m =
              Announce
                {
                  a_digit = W.first_digit p v;
                  child_rep = Nk.canonical p v;
                  parent_rep = Nk.canonical p best.cparent;
                }
            in
            to_all p v m sends
        | _ -> sends)
    | Membership -> (
        (* Pattern-match, not polymorphic [<> []]/[<> None]: [frag]
           carries records and [best] an option, the exact structural
           shapes lint rule R2 bans comparing polymorphically. *)
        match (st.frag, st.best) with
        | (_ :: _ as mfrag), Some _ -> (W.rotl p v, Member { mfrag; mhops = 1 }) :: sends
        | _ -> sends)

  let step t opening v inbox =
    let st = t.nodes.(v) in
    let sends = List.fold_left (receive t.bstar.Bstar.p v st) [] inbox in
    match opening with None -> sends | Some phase -> open_phase t.bstar phase v st sends

  let successor_of (p : W.params) v frag =
    let w = W.suffix p v in
    match List.assoc_opt w frag with
    | None -> W.rotl p v
    | Some entries ->
        let my_rep = Nk.canonical p v in
        let arr = Array.of_list (List.sort (fun a b -> Int.compare a.rep b.rep) entries) in
        let k = Array.length arr in
        let rec find i = if arr.(i).rep = my_rep then i else find (i + 1) in
        W.snoc p w arr.((find 0 + 1) mod k).digit

  let read_out ~stage t =
    let bstar = t.bstar in
    let p = bstar.Bstar.p in
    let successor = Array.make p.W.size (-1) in
    Array.iteri
      (fun v st -> if Option.is_some st.best then successor.(v) <- successor_of p v st.frag)
      t.nodes;
    (* The walk fails on a −1 successor (a node no candidate reached),
       and it can also close early: the necklaces that were reached
       still link into a shorter ring around the others, so the ring
       must cover B* as well. *)
    match Graphlib.Cycle.of_successor_array_n ~start:bstar.Bstar.root successor with
    | Some cycle when Array.length cycle = bstar.Bstar.size -> (successor, cycle)
    | Some _ | None ->
        Pipeline_error.raise_error ~stage "successor map does not close into a ring covering B*"
end

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

(* One phase of the phased schedule: open it at round 0 of a fresh
   simulator run, then run to quiescence. *)
let run_phase ?domains ~faulty (nodes : Node.t) phase =
  let opening = Some phase in
  let proto : (unit, Node.msg) S.protocol =
    {
      initial = ignore;
      step =
        (fun ~round v () inbox ->
          ((), Node.step nodes (if round = 0 then opening else None) v inbox));
      wants_step = (fun () -> false);
    }
  in
  S.run ?domains ~topology:(Lazy.force nodes.Node.bstar.Bstar.graph) ~faulty proto

let live_necklace_flags bstar =
  let nodes = Node.create bstar in
  let r = run_phase ~faulty:(Bstar.fault_probe bstar) nodes Node.Probe in
  (Array.map (fun st -> st.Node.live) nodes.Node.nodes, r.S.rounds)

let run ?domains (bstar : Bstar.t) =
  (* One O(1) fault probe shared by all five phases: the simulator
     calls it once per node and once per send. *)
  let faulty = Bstar.fault_probe bstar in
  let nodes = Node.create bstar in
  let phase = run_phase ?domains ~faulty nodes in
  let r1 = phase Node.Probe in
  let r2 = phase Node.Broadcast in
  let r3 = phase Node.Choose in
  let r4 = phase Node.Exchange in
  let r5 = phase Node.Membership in
  let successor, cycle = Node.read_out ~stage:"Distributed" nodes in
  let rs = [ r1; r2; r3; r4; r5 ] in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 rs in
  let stats =
    {
      probe_rounds = r1.S.rounds;
      broadcast_rounds = r2.S.rounds;
      choose_rounds = r3.S.rounds;
      exchange_rounds = r4.S.rounds;
      membership_rounds = r5.S.rounds;
      total_rounds = sum (fun r -> r.S.rounds);
      messages = sum (fun r -> r.S.delivered);
      port_load = List.fold_left (fun acc r -> max acc r.S.max_port_load) 0 rs;
      phase_traces =
        List.combine [ "probe"; "broadcast"; "choose"; "exchange"; "membership" ]
          (List.map (fun r -> r.S.trace) rs);
    }
  in
  { bstar; successor; cycle; stats }
