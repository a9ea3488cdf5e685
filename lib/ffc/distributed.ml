module W = Debruijn.Word
module Nk = Debruijn.Necklace
module S = Netsim.Simulator

module Node = struct
  type phase = Probe | Broadcast | Choose | Exchange | Membership
  type candidate = { cdist : int; cnode : int; cparent : int }

  (* A fragment: the T_w membership entries a necklace knows, one int
     per entry packing (w, rep, digit) as (w·dⁿ + rep)·d + digit,
     ascending and duplicate-free.  Each T_w is then a contiguous run in
     ascending representative order — the order [Spanning.link_class]
     links its members in.  A fragment is never mutated once built, so
     messages share it. *)
  type msg =
    | Relay of { origin : int; hops : int }  (* necklace probe *)
    | Flood of int  (* sender's distance *)
    | Nominate of { cand : candidate; chops : int }
    | Announce of { a_digit : int; child_rep : int; parent_rep : int }
    | Member of { mfrag : int array; mhops : int }

  (* One slot per node of B(d,n) in each table, updated in place; a
     step writes only the stepped node's slots. *)
  type t = {
    bstar : Bstar.t;
    p : W.params;
    live : Bytes.t;  (* '\001': my necklace is fault-free *)
    dist : int array;  (* −1 = not reached *)
    parent : int array;
    best : candidate array;  (* elected Y of my necklace; [none] until one *)
    frag : int array array;
  }

  let none = { cdist = -1; cnode = -1; cparent = -1 }
  let has_best t v = t.best.(v).cdist >= 0

  let create (bstar : Bstar.t) =
    let p = bstar.Bstar.p in
    let size = p.W.size in
    (* Packed entries stay below (dⁿ)². *)
    if size > max_int / size then
      invalid_arg "Distributed.Node.create: d^n too large for packed fragment entries";
    {
      bstar;
      p;
      live = Bytes.make size '\000';
      dist = Array.make size (-1);
      parent = Array.make size (-1);
      best = Array.make size none;
      frag = Array.make size [||];
    }

  let is_live t v = Bytes.get t.live v <> '\000'
  let better a b = if a.cdist <> b.cdist then a.cdist < b.cdist else a.cnode < b.cnode

  let consider t v cand =
    let b = t.best.(v) in
    if b.cdist < 0 || better cand b then t.best.(v) <- cand

  (* The root necklace is recognizable locally: its elected candidate
     has no broadcast parent. *)
  let is_root_necklace best = best.cparent < 0

  let entry (p : W.params) ~w ~rep ~digit = (((w * p.W.size) + rep) * p.W.d) + digit
  let entry_w (p : W.params) e = e / (p.W.size * p.W.d)
  let entry_rep (p : W.params) e = e / p.W.d mod p.W.size
  let entry_digit (p : W.params) e = e mod p.W.d

  (* One linear merge of two fragments: [emit k e] is called on the
     k-th entry of their union; returns the union's length. *)
  let rec merge (a : int array) (b : int array) emit i j k =
    let la = Array.length a and lb = Array.length b in
    if i = la && j = lb then k
    else if j = lb || (i < la && a.(i) < b.(j)) then begin
      emit k a.(i);
      merge a b emit (i + 1) j (k + 1)
    end
    else begin
      emit k b.(j);
      merge a b emit (if i < la && a.(i) = b.(j) then i + 1 else i) (j + 1) (k + 1)
    end

  (* [a] or [b] itself when the other adds nothing, so a fragment
     already known costs no allocation. *)
  let union a b =
    let k = merge a b (fun _ _ -> ()) 0 0 0 in
    if k = Array.length a then a
    else if k = Array.length b then b
    else begin
      let out = Array.make k 0 in
      ignore (merge a b (fun k e -> out.(k) <- e) 0 0 0);
      out
    end

  (* [m] to every successor x₂…xₙa of [v], by arithmetic. *)
  let to_all (p : W.params) v m send =
    let base = v mod (p.W.size / p.W.d) * p.W.d in
    for a = 0 to p.W.d - 1 do
      send (base + a) m
    done

  let receive t v src m send =
    let p = t.p in
    match m with
    | Relay { origin; hops } ->
        if origin = v then Bytes.set t.live v '\001'
        else if hops < p.W.n then send (W.rotl p v) (Relay { origin; hops = hops + 1 })
    | Flood d ->
        (* First receipt wins; the inbox is sorted by source, so of
           simultaneous arrivals the minimal sender becomes the parent —
           exactly the thesis's tie-break. *)
        if is_live t v && t.dist.(v) < 0 then begin
          t.dist.(v) <- d + 1;
          t.parent.(v) <- src;
          to_all p v (Flood (d + 1)) send
        end
    | Nominate { cand; chops } ->
        consider t v cand;
        if chops < p.W.n then send (W.rotl p v) (Nominate { cand; chops = chops + 1 })
    | Announce { a_digit; child_rep; parent_rep } ->
        let best = t.best.(v) in
        if best.cdist >= 0 then begin
          let my_rep = Nk.canonical p v in
          let as_child = (not (is_root_necklace best)) && v = best.cnode in
          if parent_rep = my_rep || as_child then begin
            (* Self entry: in both roles the local digit is the last
               digit of the receiving node wγ.  A child also records
               its parent's entry. *)
            let w = W.prefix p v in
            let entries =
              entry p ~w ~rep:my_rep ~digit:(W.last_digit p v)
              :: entry p ~w ~rep:child_rep ~digit:a_digit
              ::
              (if as_child then
                 [
                   entry p ~w ~rep:(Nk.canonical p best.cparent)
                     ~digit:(W.first_digit p best.cparent);
                 ]
               else [])
            in
            t.frag.(v) <- union t.frag.(v) (Array.of_list (List.sort_uniq Int.compare entries))
          end
        end
    | Member { mfrag; mhops } ->
        t.frag.(v) <- union t.frag.(v) mfrag;
        if mhops < p.W.n then send (W.rotl p v) (Member { mfrag; mhops = mhops + 1 })

  let open_phase t phase v send =
    let p = t.p in
    match phase with
    | Probe -> send (W.rotl p v) (Relay { origin = v; hops = 1 })
    | Broadcast ->
        if v = t.bstar.Bstar.root && is_live t v then begin
          t.dist.(v) <- 0;
          to_all p v (Flood 0) send
        end
    | Choose ->
        if is_live t v && t.dist.(v) >= 0 then begin
          let cand = { cdist = t.dist.(v); cnode = v; cparent = t.parent.(v) } in
          consider t v cand;
          send (W.rotl p v) (Nominate { cand; chops = 1 })
        end
    | Exchange ->
        (* The exit node αw = π⁻¹(Y) of each non-root necklace announces
           to all its successors wγ. *)
        let best = t.best.(v) in
        if best.cdist >= 0 && (not (is_root_necklace best)) && W.rotl p v = best.cnode then
          to_all p v
            (Announce
               {
                 a_digit = W.first_digit p v;
                 child_rep = Nk.canonical p v;
                 parent_rep = Nk.canonical p best.cparent;
               })
            send
    | Membership ->
        let mfrag = t.frag.(v) in
        if Array.length mfrag > 0 && has_best t v then
          send (W.rotl p v) (Member { mfrag; mhops = 1 })

  let step t opening v inbox ~send =
    for i = 0 to S.Inbox.length inbox - 1 do
      receive t v (S.Inbox.src inbox i) (S.Inbox.msg inbox i) send
    done;
    match opening with None -> () | Some phase -> open_phase t phase v send

  (* H-successor of [v]: the next member after v's necklace in v's T_w
     run, w = suffix v, wrapping to the run's first; π(v) outside every
     T_w; −1 if v's own entry is missing (an inconsistent B\u{2217}). *)
  let successor_of t v =
    let p = t.p in
    let w = W.suffix p v in
    let frag = t.frag.(v) in
    let k = Array.length frag in
    let rec first i = if i < k && entry_w p frag.(i) < w then first (i + 1) else i in
    let lo = first 0 in
    let rec last i = if i < k && entry_w p frag.(i) = w then last (i + 1) else i in
    let hi = last lo in
    if lo = hi then W.rotl p v
    else
      let my_rep = Nk.canonical p v in
      let rec find i =
        if i = hi then -1
        else if entry_rep p frag.(i) = my_rep then
          W.snoc p w (entry_digit p frag.(if i + 1 < hi then i + 1 else lo))
        else find (i + 1)
      in
      find lo

  let read_out ~stage t =
    let bstar = t.bstar in
    let successor = Array.make t.p.W.size (-1) in
    for v = 0 to t.p.W.size - 1 do
      if has_best t v then successor.(v) <- successor_of t v
    done;
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
let run_phase ~faulty (nodes : Node.t) phase =
  let opening = Some phase in
  S.run ~topology:(S.de_bruijn nodes.Node.p) ~faulty
    {
      S.step =
        (fun ~round v inbox ~send ->
          Node.step nodes (if round = 0 then opening else None) v inbox ~send);
      wants_step = (fun _ -> false);
    }

let live_necklace_flags bstar =
  let nodes = Node.create bstar in
  let r = run_phase ~faulty:(Bstar.fault_probe bstar) nodes Node.Probe in
  (Array.init bstar.Bstar.p.W.size (Node.is_live nodes), r.S.rounds)

let run (bstar : Bstar.t) =
  let faulty = Bstar.fault_probe bstar in
  let nodes = Node.create bstar in
  let phase = run_phase ~faulty nodes in
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
