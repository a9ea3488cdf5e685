module W = Debruijn.Word
module Fa = Graphlib.Flatarr
module Sched = Graphlib.Sched

type t = {
  bstar : Bstar.t;
  modified : Spanning.modified;
  successor : Fa.t;
  cycle : int array;
}

let successor_map ?domains ?ws (m : Spanning.modified) =
  let bstar = m.Spanning.tree.Spanning.adj.Adjacency.bstar in
  let p = bstar.Bstar.p in
  let in_bstar = bstar.Bstar.in_bstar in
  let override = m.Spanning.succ_override in
  let succ =
    match ws with
    | None -> Fa.make p.W.size (-1)
    | Some w ->
        Workspace.check w p;
        Fa.fill w.Workspace.successor (-1);
        w.Workspace.successor
  in
  (* One flat pass: exit nodes of D-edges jump to the recorded entry
     node, everyone else follows its necklace (rotate left, inlined:
     W.rotl without the per-call range check).  Each slot is written
     once with a value depending only on read-only inputs, so chunking
     the pass across the work-stealing pool is trivially
     deterministic. *)
  let d = p.W.d in
  let stride = p.W.size / d in
  let fill lo hi =
    for x = lo to hi - 1 do
      if in_bstar.{x} <> 0 then
        succ.{x} <-
          (if override.{x} >= 0 then override.{x}
           else (x mod stride * d) + (x / stride))
    done
  in
  (match domains with
  | Some k when k > 1 && p.W.size >= Graphlib.Itopo.par_threshold ->
      Sched.with_pool ~domains:k (fun pool ->
          Sched.parallel_for pool ~chunk:Graphlib.Itopo.chunk_size ~lo:0
            ~hi:p.W.size
            (fun _ clo chi ->
              (fill clo chi
              [@lint.par_write
                "fill writes succ.{x} only for x in [clo, chi) — the \
                 chunk range itself — from read-only in_bstar/override"])))
  | _ -> fill 0 p.W.size);
  succ

(* Step 3's ring walk from the root.  A node's successor is its
   necklace rotation — one division — unless it is the exit node of a
   D-edge, marked in [exits]; only there is [override] read.  The ring
   lands in [cycle] (length |B*|).  Returns the closed length, or −1 as
   soon as the walk leaves B* or would overflow [cycle]: a walk that
   repeats a node other than the root never closes, so it runs into
   that bound instead of needing a visited set. *)
let rec ring_walk (in_bstar : Fa.Byte.t) exits (override : Fa.t) nodes stride d root
    (cycle : int array) v len =
  if v = root && len > 0 then len
  else if v < 0 || v >= nodes || in_bstar.{v} = 0 || len = Array.length cycle then -1
  else begin
    cycle.(len) <- v;
    let next =
      if Graphlib.Bitset.mem exits v then override.{v}
      else
        let q = v / stride in
        ((v - (q * stride)) * d) + q
    in
    ring_walk in_bstar exits override nodes stride d root cycle next (len + 1)
  end
[@@lint.hot]

let close_ring ?ws (m : Spanning.modified) =
  let bstar = m.Spanning.tree.Spanning.adj.Adjacency.bstar in
  let p = bstar.Bstar.p in
  let override = m.Spanning.succ_override in
  let exits =
    match ws with
    | None -> Graphlib.Bitset.create p.W.size
    | Some w ->
        Workspace.check w p;
        Graphlib.Bitset.clear w.Workspace.ring_exits;
        w.Workspace.ring_exits
  in
  for x = 0 to p.W.size - 1 do
    if override.{x} >= 0 then Graphlib.Bitset.add exits x
  done;
  let size = bstar.Bstar.size in
  let cycle = Array.make size 0 in
  let root = bstar.Bstar.root in
  let len =
    ring_walk bstar.Bstar.in_bstar exits override p.W.size (p.W.size / p.W.d) p.W.d
      root cycle root 0
  in
  (* Impossible by Proposition 2.1 on a B* from [Bstar.compute]; a
     malformed record gets the typed, recoverable error. *)
  if len < 0 then
    Pipeline_error.raise_error ~stage:"Embed" "the ring walk left B* or ran past |B*| nodes";
  if len <> size then
    Pipeline_error.raise_error ~stage:"Embed" "the ring closed before covering B*";
  cycle

let of_bstar ?domains ?ws bstar =
  let adj = Adjacency.build ?ws bstar in
  let tree = Spanning.build ?ws adj in
  let modified = Spanning.modify ?ws tree in
  let successor = successor_map ?domains ?ws modified in
  let cycle = close_ring ?ws modified in
  { bstar; modified; successor; cycle }

let embed ?root_hint ?domains ?ws p ~faults =
  Option.map (of_bstar ?domains ?ws) (Bstar.compute ?root_hint ?domains ?ws p ~faults)

let verify ?ws t =
  let b = t.bstar in
  let p = b.Bstar.p in
  let k = Array.length t.cycle in
  k = b.Bstar.size && k > 0
  &&
  (* Arithmetic Hamiltonicity: the cycle is simple, covers exactly B*,
     avoids faulty necklaces, and every consecutive pair (wrap
     included) is a De Bruijn edge — x → y iff prefix y = suffix x.
     No Digraph is forced even at B(2,22). *)
  let seen =
    match ws with
    | None -> Graphlib.Bitset.create p.W.size
    | Some w ->
        Workspace.check w p;
        Graphlib.Bitset.clear w.Workspace.cycle_seen;
        w.Workspace.cycle_seen
  in
  let in_bstar = b.Bstar.in_bstar in
  let necklace_faulty = b.Bstar.necklace_faulty in
  let ok = ref true in
  for i = 0 to k - 1 do
    let x = t.cycle.(i) in
    if
      x < 0 || x >= p.W.size
      || in_bstar.{x} = 0
      || necklace_faulty.{x} <> 0
      || Graphlib.Bitset.mem seen x
    then ok := false
    else begin
      Graphlib.Bitset.add seen x;
      let y = t.cycle.((i + 1) mod k) in
      if y < 0 || y >= p.W.size || W.prefix p y <> W.suffix p x then ok := false
    end
  done;
  !ok

let length t = Array.length t.cycle

let length_lower_bound p f = p.W.size - (p.W.n * f)

let worst_case_faults p f =
  (* Prop 2.2's adversarial family puts each fault on its own
     full-length necklace; with f > d − 2 the proposition's guarantee
     (and the dⁿ − nf = length argument of §2.5) no longer applies, so
     larger f would silently produce a pack with no worst-case
     meaning. *)
  if f < 0 || f > p.W.d - 2 then invalid_arg "Embed.worst_case_faults";
  (* α^{n−1}(d−1): digits α,…,α followed by d−1. *)
  List.init f (fun a ->
      let digits = Array.make p.W.n a in
      digits.(p.W.n - 1) <- p.W.d - 1;
      W.encode p digits)
