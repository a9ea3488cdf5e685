type topology = { nodes : int; mem_edge : int -> int -> bool }

let de_bruijn (p : Debruijn.Word.params) =
  { nodes = p.Debruijn.Word.size; mem_edge = Debruijn.Word.is_edge p }

(* The engine writes [srcs]/[msgs] at the round switch and moves the
   [lo, lo + len) window from node to node; a protocol only reads. *)
module Inbox = struct
  type 'm t = {
    mutable srcs : int array;
    mutable msgs : 'm array;
    mutable lo : int;
    mutable len : int;
  }

  let length ib = ib.len

  let index ib i =
    if i < 0 || i >= ib.len then invalid_arg "Simulator.Inbox: index out of range";
    ib.lo + i

  let src ib i = ib.srcs.(index ib i)
  let msg ib i = ib.msgs.(index ib i)
end

type 'm protocol = {
  step : round:int -> int -> 'm Inbox.t -> send:(int -> 'm -> unit) -> unit;
  wants_step : int -> bool;
}

type round_metrics = {
  active : int;
  delivered_in_round : int;
  sent : int;
  payload_words : int;
  wall_ns : float;
}

type result = {
  rounds : int;
  delivered : int;
  max_inflight : int;
  max_port_load : int;
  payload_total : int;
  trace : round_metrics array;
}

exception Illegal_send of { round : int; src : int; dst : int }
exception Did_not_converge of int

(* ------------------------------------------------------------------ *)
(* Engine state.  The round being executed reads [inbox] and appends
   its sends, in send order, to the flat send buffer
   [sdst]/[ssrc]/[smsg]; [count.(v)] counts the buffered messages for
   [v].  Nodes step in ascending order, so the buffer is sorted by
   source, and the stable counting sort at the round switch leaves
   every inbox sorted by source with same-source messages in send
   order — payloads are never compared.  Both buffers are reused round
   after round; slots past the live length keep stale payload
   references until overwritten, so retention is bounded by the run's
   peak round traffic. *)

type 'm engine = {
  n : int;
  live : Bytes.t;  (* '\001' iff the node is not faulty *)
  scheduled : Bytes.t;  (* '\001' iff in [next] *)
  count : int array;
  mutable next : int array;  (* nodes scheduled for the next round, distinct *)
  mutable nnext : int;
  mutable work : int array;  (* this round's nodes, ascending *)
  mutable nwork : int;
  stop : int array;  (* stop.(i): end of work.(i)'s inbox slice *)
  inbox : 'm Inbox.t;
  mutable sdst : int array;
  mutable ssrc : int array;
  mutable smsg : 'm array;
  mutable nsend : int;
  (* the step in progress *)
  mutable round : int;
  mutable cur : int;
  mutable port : int;
  mutable sent : int;  (* sends this round, drops to faulty nodes included *)
  mutable payload : int;  (* payload words accepted this round *)
}

let illegal_send ~round ~src ~dst = raise (Illegal_send { round; src; dst })
let did_not_converge max_rounds = raise (Did_not_converge max_rounds)

(* Doubling growth of the send buffer; [msg] fills the fresh slots. *)
let grow_send e msg =
  let cap = max 16 (2 * Array.length e.sdst) in
  let grow a fill =
    let a' = Array.make cap fill in
    Array.blit a 0 a' 0 e.nsend;
    a'
  in
  e.sdst <- grow e.sdst 0;
  e.ssrc <- grow e.ssrc 0;
  e.smsg <- grow e.smsg msg

let schedule e v =
  if Bytes.unsafe_get e.scheduled v = '\000' then begin
    Bytes.unsafe_set e.scheduled v '\001';
    e.next.(e.nnext) <- v;
    e.nnext <- e.nnext + 1
  end

(* In-place heapsort of [a.(0 .. k−1)]: the sparse-round worklist
   sort, with no scratch array. *)
let rec sift (a : int array) i len =
  let l = (2 * i) + 1 in
  if l < len then begin
    let c = if l + 1 < len && a.(l + 1) > a.(l) then l + 1 else l in
    if a.(c) > a.(i) then begin
      let t = a.(i) in
      a.(i) <- a.(c);
      a.(c) <- t;
      sift a c len
    end
  end

let sort_prefix a k =
  for i = (k / 2) - 1 downto 0 do
    sift a i k
  done;
  for last = k - 1 downto 1 do
    let t = a.(0) in
    a.(0) <- a.(last);
    a.(last) <- t;
    sift a 0 last
  done

(* The round switch: the scheduled nodes become the (ascending)
   worklist, and the send buffer is counting-sorted into the inbox.
   Dense rounds (≥ n/4 nodes scheduled) rebuild the worklist by a
   linear scan of the flags — O(n), cache-friendly and sorted for free
   — instead of paying the O(k log k) sort. *)
let switch e =
  let w = e.next in
  e.next <- e.work;
  e.work <- w;
  let k = e.nnext in
  e.nnext <- 0;
  if 4 * k >= e.n then begin
    let j = ref 0 in
    for v = 0 to e.n - 1 do
      if Bytes.unsafe_get e.scheduled v <> '\000' then begin
        Bytes.unsafe_set e.scheduled v '\000';
        w.(!j) <- v;
        incr j
      end
    done
  end
  else begin
    for i = 0 to k - 1 do
      Bytes.unsafe_set e.scheduled w.(i) '\000'
    done;
    sort_prefix w k
  end;
  e.nwork <- k;
  let ib = e.inbox in
  if Array.length ib.Inbox.msgs < e.nsend then begin
    let cap = max e.nsend (2 * Array.length ib.Inbox.msgs) in
    ib.Inbox.srcs <- Array.make cap 0;
    ib.Inbox.msgs <- Array.make cap e.smsg.(0)
  end;
  (* Offsets in worklist order; [count] becomes each slice's cursor. *)
  let off = ref 0 in
  for i = 0 to k - 1 do
    let v = w.(i) in
    let c = e.count.(v) in
    e.count.(v) <- !off;
    off := !off + c;
    e.stop.(i) <- !off
  done;
  let srcs = ib.Inbox.srcs and msgs = ib.Inbox.msgs in
  for j = 0 to e.nsend - 1 do
    let d = e.sdst.(j) in
    let pos = e.count.(d) in
    srcs.(pos) <- e.ssrc.(j);
    msgs.(pos) <- e.smsg.(j);
    e.count.(d) <- pos + 1
  done;
  for i = 0 to k - 1 do
    e.count.(w.(i)) <- 0
  done;
  e.nsend <- 0

let now_ns () =
  (Unix.gettimeofday () [@lint.allow "R1 per-round wall-clock trace metrics: reported, never branched on"]) *. 1e9

(* Default payload sizing: every message counts as zero words, so
   protocols that predate the accounting keep reporting 0 — the metric
   is strictly opt-in. *)
let zero_payload _ = 0

let run ?max_rounds ?(payload_words = zero_payload) ~topology ~faulty proto =
  let n = topology.nodes in
  let max_rounds = Option.value max_rounds ~default:((4 * n) + 64) in
  let mem_edge = topology.mem_edge in
  let e =
    {
      n;
      live = Bytes.init n (fun v -> if faulty v then '\000' else '\001');
      scheduled = Bytes.make n '\000';
      count = Array.make n 0;
      next = Array.make n 0;
      nnext = 0;
      work = Array.make n 0;
      nwork = 0;
      stop = Array.make n 0;
      inbox = { Inbox.srcs = [||]; msgs = [||]; lo = 0; len = 0 };
      sdst = [||];
      ssrc = [||];
      smsg = [||];
      nsend = 0;
      round = 0;
      cur = 0;
      port = 0;
      sent = 0;
      payload = 0;
    }
  in
  (* Round 0 steps every live node, in node order. *)
  for v = 0 to n - 1 do
    if Bytes.get e.live v <> '\000' then begin
      e.work.(e.nwork) <- v;
      e.nwork <- e.nwork + 1
    end
  done;
  let send dst msg =
    e.port <- e.port + 1;
    if dst < 0 || dst >= n || not (mem_edge e.cur dst) then
      illegal_send ~round:e.round ~src:e.cur ~dst;
    if Bytes.unsafe_get e.live dst <> '\000' then begin
      if e.nsend = Array.length e.sdst then grow_send e msg;
      let j = e.nsend in
      e.sdst.(j) <- dst;
      e.ssrc.(j) <- e.cur;
      e.smsg.(j) <- msg;
      e.nsend <- j + 1;
      e.count.(dst) <- e.count.(dst) + 1;
      e.payload <- e.payload + payload_words msg;
      schedule e dst
    end
  [@@lint.hot]
  in
  let delivered = ref 0 in
  let max_inflight = ref 0 in
  let max_port_load = ref 0 in
  let payload_total = ref 0 in
  let trace = ref [] in
  let ib = e.inbox in
  (while e.nwork > 0 do
     (* The guard runs before the round executes, so a run performs at
        most [max_rounds] rounds (indices 0 .. max_rounds − 1). *)
     if e.round >= max_rounds then did_not_converge max_rounds;
     let t0 = now_ns () in
     let r = e.round in
     e.sent <- 0;
     e.payload <- 0;
     ib.Inbox.lo <- 0;
     ib.Inbox.len <- 0;
     for i = 0 to e.nwork - 1 do
       let v = e.work.(i) in
       let stop = e.stop.(i) in
       ib.Inbox.lo <- ib.Inbox.lo + ib.Inbox.len;
       ib.Inbox.len <- stop - ib.Inbox.lo;
       e.cur <- v;
       e.port <- 0;
       proto.step ~round:r v ib ~send;
       e.sent <- e.sent + e.port;
       if e.port > !max_port_load then max_port_load := e.port;
       if Bytes.unsafe_get e.scheduled v = '\000' && proto.wants_step v then
         schedule e v
     done;
     let round_delivered = ib.Inbox.lo + ib.Inbox.len in
     delivered := !delivered + round_delivered;
     if round_delivered > !max_inflight then max_inflight := round_delivered;
     payload_total := !payload_total + e.payload;
     trace :=
       ({
          active = e.nwork;
          delivered_in_round = round_delivered;
          sent = e.sent;
          payload_words = e.payload;
          wall_ns = now_ns () -. t0;
        }
        :: !trace
       [@lint.allow "R7 one trace record per executed round, not per message"]);
     (* Quiescence is the next worklist being empty — no O(n) rescan. *)
     switch e;
     e.round <- r + 1
   done)
  [@lint.hot];
  {
    rounds = e.round;
    delivered = !delivered;
    max_inflight = !max_inflight;
    max_port_load = !max_port_load;
    payload_total = !payload_total;
    trace = Array.of_list (List.rev !trace);
  }
