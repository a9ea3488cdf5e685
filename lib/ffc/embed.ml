module W = Debruijn.Word
module Fa = Graphlib.Flatarr

type t = {
  bstar : Bstar.t;
  modified : Spanning.modified;
  successor : Fa.t;
  cycle : int array;
}

let successor_map ?domains:_ ?ws (m : Spanning.modified) =
  let p = m.Spanning.tree.Spanning.adj.Adjacency.bstar.Bstar.p in
  let succ = (Workspace.resolve ws p).Workspace.successor in
  Succ_digit.fill_successors p m.Spanning.digit succ;
  succ

let fail reason = Pipeline_error.raise_error ~stage:"Embed" reason

let close_ring (m : Spanning.modified) =
  let bstar = m.Spanning.tree.Spanning.adj.Adjacency.bstar in
  let p = bstar.Bstar.p in
  (* The walk trusts the table's outside marks for membership, so they
     must be B*'s own before it starts. *)
  if Succ_digit.first_disagreement p bstar.Bstar.in_bstar m.Spanning.digit >= 0 then
    fail "the ring's digit table disagrees with B*";
  let size = bstar.Bstar.size in
  let cycle = Array.make size 0 in
  let len = Succ_digit.walk p m.Spanning.digit bstar.Bstar.root cycle in
  (* Impossible by Proposition 2.1 on a B* from [Bstar.compute]; a
     malformed record gets the typed, recoverable error. *)
  if len < 0 then fail "the ring walk left B* or ran past |B*| nodes";
  if len <> size then fail "the ring closed before covering B*";
  cycle

let of_bstar ?ws bstar =
  let ws = Workspace.resolve ws bstar.Bstar.p in
  let adj = Adjacency.build ~ws bstar in
  let tree = Spanning.build ~ws adj in
  let modified = Spanning.modify ~ws tree in
  let successor = successor_map ~ws modified in
  let cycle = close_ring modified in
  { bstar; modified; successor; cycle }

let embed ?root_hint ?domains:_ ?ws p ~faults =
  let ws = Workspace.resolve ws p in
  Option.map (of_bstar ~ws) (Bstar.compute ?root_hint ~ws p ~faults)

let verify ?ws:_ t =
  let b = t.bstar in
  let p = b.Bstar.p in
  let k = Array.length t.cycle in
  k = b.Bstar.size && k > 0
  &&
  (* Arithmetic Hamiltonicity: the cycle is simple, covers exactly B*,
     avoids faulty necklaces, and every consecutive pair (wrap
     included) is a De Bruijn edge — x → y iff prefix y = suffix x.
     No Digraph is forced even at B(2,22). *)
  let seen = Graphlib.Bitset.create p.W.size in
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
