module W = Debruijn.Word
module Nk = Debruijn.Necklace
module S = Netsim.Simulator

type t = {
  bstar : Bstar.t;
  successor : int array;
  cycle : int array;
  total_rounds : int;
  messages : int;
  trace : S.round_metrics array;
}

let schedule_length ~n = (5 * n) + 4

(* ------------------------------------------------------------------ *)
(* Local data carried through the phases. *)

type candidate = { cdist : int; cnode : int; cparent : int }
type entry = { digit : int; rep : int }
type fragment = (int * entry list) list

type msg =
  | Probe of { origin : int; hops : int }
  | Flood of int  (* sender's distance *)
  | Choose of { cand : candidate; chops : int }
  | Announce of { a_digit : int; child_rep : int; parent_rep : int }
  | Member of { mfrag : fragment; mhops : int }

type state = {
  live : bool;  (* my necklace is fault-free *)
  dist : int;  (* −1 = not reached *)
  parent : int;
  best : candidate option;  (* elected Y of my necklace *)
  frag : fragment;
  finished : bool;
}

let better a b = if a.cdist <> b.cdist then a.cdist < b.cdist else a.cnode < b.cnode

(* Declaration-order (digit, rep) lexicographic — the order polymorphic
   [compare] used to give, so merged fragments stay bit-identical. *)
let entry_compare a b =
  match Int.compare a.digit b.digit with 0 -> Int.compare a.rep b.rep | c -> c

let merge_fragment frag w entries =
  let existing = Option.value ~default:[] (List.assoc_opt w frag) in
  (w, List.sort_uniq entry_compare (entries @ existing)) :: List.remove_assoc w frag

let merge_fragments a b = List.fold_left (fun acc (w, es) -> merge_fragment acc w es) a b

(* The root necklace is recognizable locally: its elected candidate has
   no broadcast parent. *)
let is_root_necklace best = best.cparent < 0

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

let run ?domains (bstar : Bstar.t) =
  let p = bstar.Bstar.p in
  let n = p.W.n in
  let root = bstar.Bstar.root in
  let faulty = Bstar.fault_probe bstar in
  let total = schedule_length ~n in
  (* phase boundaries (see the interface) *)
  let bcast_seed = n in
  let choose_start = (3 * n) + 2 in
  let exchange_round = (4 * n) + 3 in
  let member_start = (4 * n) + 4 in
  let proto : (state, msg) S.protocol =
    {
      initial =
        (fun v ->
          {
            live = false;
            dist = (if v = root then 0 else -1);
            parent = -1;
            best = None;
            frag = [];
            finished = false;
          });
      step =
        (fun ~round v st inbox ->
          let st = ref st in
          let sends = ref [] in
          let send dst m = sends := (dst, m) :: !sends in
          let broadcast m = List.iter (fun s -> send s m) (W.successors p v) in
          (* --- receive --- *)
          List.iter
            (fun (src, m) ->
              match m with
              | Probe { origin; hops } ->
                  if origin = v then st := { !st with live = true }
                  else if hops < n then
                    send (W.rotl p v) (Probe { origin; hops = hops + 1 })
              | Flood d ->
                  (* first receipt wins; the inbox is sorted by source so
                     simultaneous arrivals use the minimal sender *)
                  if !st.live && !st.dist < 0 then begin
                    st := { !st with dist = d + 1; parent = src };
                    broadcast (Flood (d + 1))
                  end
              | Choose { cand; chops } ->
                  (match !st.best with
                  | Some b when not (better cand b) -> ()
                  | _ -> st := { !st with best = Some cand });
                  if chops < n then
                    send (W.rotl p v) (Choose { cand; chops = chops + 1 })
              | Announce { a_digit; child_rep; parent_rep } -> (
                  match !st.best with
                  | None -> ()
                  | Some best ->
                      let my_rep = Nk.canonical p v in
                      let as_parent = parent_rep = my_rep in
                      let as_child = (not (is_root_necklace best)) && v = best.cnode in
                      if as_parent || as_child then begin
                        let w = W.prefix p v in
                        let entries =
                          { digit = W.last_digit p v; rep = my_rep }
                          :: { digit = a_digit; rep = child_rep }
                          ::
                          (if as_child then
                             [ { digit = W.first_digit p best.cparent;
                                 rep = Nk.canonical p best.cparent } ]
                           else [])
                        in
                        st := { !st with frag = merge_fragment !st.frag w entries }
                      end)
              | Member { mfrag; mhops } ->
                  st := { !st with frag = merge_fragments !st.frag mfrag };
                  if mhops < n then
                    send (W.rotl p v) (Member { mfrag; mhops = mhops + 1 }))
            inbox;
          (* --- scheduled actions --- *)
          if round = 0 then send (W.rotl p v) (Probe { origin = v; hops = 1 });
          if round = bcast_seed && v = root && !st.live then begin
            st := { !st with dist = 0 };
            broadcast (Flood 0)
          end;
          if round = choose_start && !st.live && !st.dist >= 0 then begin
            let cand = { cdist = !st.dist; cnode = v; cparent = !st.parent } in
            (match !st.best with
            | Some b when not (better cand b) -> ()
            | _ -> st := { !st with best = Some cand });
            send (W.rotl p v) (Choose { cand; chops = 1 })
          end;
          (if round = exchange_round then
             match !st.best with
             | Some best when (not (is_root_necklace best)) && W.rotl p v = best.cnode ->
                 broadcast
                   (Announce
                      {
                        a_digit = W.first_digit p v;
                        child_rep = Nk.canonical p v;
                        parent_rep = Nk.canonical p best.cparent;
                      })
             | _ -> ());
          (* Pattern-match, not polymorphic [<> []]/[<> None]: [frag]
             carries records and [best] an option, the exact structural
             shapes lint rule R2 bans comparing polymorphically. *)
          (if round = member_start then
             match (!st.frag, !st.best) with
             | (_ :: _ as mfrag), Some _ -> send (W.rotl p v) (Member { mfrag; mhops = 1 })
             | _ -> ());
          if round >= total then st := { !st with finished = true };
          (!st, !sends));
      wants_step = (fun st -> not st.finished);
    }
  in
  let r =
    (* Out of regime, floods from late-reached nodes can still be in
       flight when the wind-down budget runs out. *)
    try
      S.run ?domains ~max_rounds:(total + 8) ~topology:(Lazy.force bstar.Bstar.graph) ~faulty
        proto
    with S.Did_not_converge _ ->
      Pipeline_error.raise_error ~stage:"Selftimed" "traffic outlived the fixed schedule"
  in
  let successor = Array.make p.W.size (-1) in
  Array.iteri
    (fun v st -> if Option.is_some st.best then successor.(v) <- successor_of p v st.frag)
    r.S.states;
  let cycle =
    (* [of_successor_map_n], not [of_successor_map]: the ranged walk
       treats a −1 successor (a node the schedule never reached) as
       non-closure instead of indexing out of bounds.  The walk can
       also close early: necklaces the schedule did reach still link
       into a shorter ring around the unreached ones, so the ring must
       cover B* as well. *)
    match
      Graphlib.Cycle.of_successor_map_n ~n:p.W.size ~start:root (fun v -> successor.(v))
    with
    | Some c when Array.length c = bstar.Bstar.size -> c
    | Some _ | None ->
        Pipeline_error.raise_error ~stage:"Selftimed"
          "schedule too short for this fault pattern"
  in
  {
    bstar;
    successor;
    cycle;
    total_rounds = r.S.rounds;
    messages = r.S.delivered;
    trace = r.S.trace;
  }
