module W = Debruijn.Word
module Nk = Debruijn.Necklace
module Fa = Graphlib.Flatarr
module I32 = Graphlib.Flatarr.I32

type event = Fault of int | Repair of int

type outcome = Patched | Recomputed | Unchanged

type error = Out_of_range of int | Already_faulty of int | Not_faulty of int

type stats = {
  events : int;
  fault_events : int;
  repair_events : int;
  rejected : int;
  patched : int;
  recomputed : int;
  unchanged : int;
  affected_nodes : int;
  last_affected : int;
}

(* Growable int vector — per-event scratch that amortizes to zero
   allocation once warm. *)
type vec = { mutable buf : int array; mutable len : int }

let vec_create () = { buf = Array.make 64 0; len = 0 }
let vec_clear v = v.len <- 0

let vec_push v x =
  if v.len = Array.length v.buf then begin
    let b = Array.make (2 * v.len) 0 in
    Array.blit v.buf 0 b 0 v.len;
    v.buf <- b
  end;
  v.buf.(v.len) <- x;
  v.len <- v.len + 1

(* Every dⁿ- or dⁿ⁻¹-sized table is off-heap ({!Graphlib.Flatarr}), so
   the GC never scans Live's state however large B(d,n) is.  Node ids,
   representatives and levels are 32-bit cells, indexed directly
   ([Int32.to_int a.{i}]) so no read boxes and none is a call. *)
type t = {
  p : W.params;
  root_hint : int option;
  ws : Workspace.t option;
  (* ---- the current fault set ---- *)
  faulty : Fa.Byte.t;  (* per node, nonzero iff faulty *)
  nk_faults : (int, int) Hashtbl.t;  (* necklace rep -> faulty nodes on it *)
  mutable fault_count : int;
  mutable live_nodes : int;  (* nodes on fault-free necklaces *)
  (* ---- B* state, all node-level (index-free, so splices never
     renumber anything) ---- *)
  rep : I32.t;  (* necklace representative; -1 outside B* (membership) *)
  dist : I32.t;  (* BFS distance from root; -1 outside B* *)
  digit : Succ_digit.t;  (* the ring, one successor digit per node *)
  mutable root : int;  (* -1 when B* is empty *)
  mutable bsize : int;
  mutable ecc : int;
  (* ---- derived necklace structure, keyed by representative ---- *)
  chosen : I32.t;  (* rep -> lex-min (dist, node); -1 if not a live rep *)
  bucket_head : I32.t;  (* label w -> first child rep, -1 *)
  bucket_next : I32.t;  (* rep -> next child rep in its label bucket *)
  (* ---- ecc maintenance ---- *)
  mutable hist : int array;  (* hist.(k) = members at distance k *)
  (* ---- per-event scratch: marks, zero between events ---- *)
  mark : Fa.Byte.t;  (* node -> [aff] / [settled] / [nk] bits *)
  wmark : Fa.Byte.t;  (* label -> nonzero while its bucket is dirty *)
  queue : vec;
  affected : vec;
  changed : vec;
  marked : vec;
  dirty : vec;
  members : Fa.t;  (* one T_w class: at most d children and the parent *)
  mutable bq : vec array;  (* bucket queue indexed by tentative distance *)
  mutable bq_hi : int;
  (* ---- counters ---- *)
  mutable c_events : int;
  mutable c_faults : int;
  mutable c_repairs : int;
  mutable c_rejected : int;
  mutable c_patched : int;
  mutable c_recomputed : int;
  mutable c_unchanged : int;
  mutable c_affected : int;
  mutable c_last_affected : int;
}

let params t = t.p
let size t = t.bsize
let root t = t.root
let ecc t = t.ecc
let ring_length t = t.bsize
let is_empty t = t.bsize = 0
let in_bstar t v = Int32.to_int t.rep.{v} >= 0
let dist t v = Int32.to_int t.dist.{v}
let successor t v = Succ_digit.successor t.p t.digit v
let is_faulty t v = t.faulty.{v} <> 0
let fault_count t = t.fault_count

let stats t =
  {
    events = t.c_events;
    fault_events = t.c_faults;
    repair_events = t.c_repairs;
    rejected = t.c_rejected;
    patched = t.c_patched;
    recomputed = t.c_recomputed;
    unchanged = t.c_unchanged;
    affected_nodes = t.c_affected;
    last_affected = t.c_last_affected;
  }

let current_faults t =
  let acc = ref [] in
  for v = t.p.W.size - 1 downto 0 do
    if t.faulty.{v} <> 0 then acc := v :: !acc
  done;
  !acc

(* ------------------------------------------------------------------ *)
(* ecc via a distance histogram: O(1) amortized updates, exact max.    *)

let ensure_hist t k =
  let len = Array.length t.hist in
  if k >= len then begin
    let b = Array.make (max (2 * len) (k + 1)) 0 in
    Array.blit t.hist 0 b 0 len;
    t.hist <- b
  end

let hist_inc t k =
  ensure_hist t k;
  t.hist.(k) <- t.hist.(k) + 1;
  if k > t.ecc then t.ecc <- k

let hist_dec t k =
  t.hist.(k) <- t.hist.(k) - 1;
  if k = t.ecc then
    while t.ecc > 0 && t.hist.(t.ecc) = 0 do
      t.ecc <- t.ecc - 1
    done

(* ------------------------------------------------------------------ *)
(* bucket queue for the incremental BFS phases                          *)

let bq_push t k v =
  let len = Array.length t.bq in
  if k >= len then begin
    let b = Array.make (max (2 * len) (k + 1)) t.bq.(0) in
    Array.blit t.bq 0 b 0 len;
    for i = len to Array.length b - 1 do
      b.(i) <- vec_create ()
    done;
    t.bq <- b
  end;
  vec_push t.bq.(k) v;
  if k > t.bq_hi then t.bq_hi <- k

let bq_reset t =
  for k = 0 to t.bq_hi do
    vec_clear t.bq.(k)
  done;
  t.bq_hi <- -1

(* ------------------------------------------------------------------ *)
(* per-event marks                                                      *)

(* The mark bits of a node.  An event sets them only on nodes that it
   also pushes to one of its touched lists — [affected] (invalidated
   by a fault, or on the necklace a repair revives), [changed] (a node
   whose level or membership moved), [marked] (a necklace
   representative) — and the labels
   of dirty buckets on [dirty]; {!clear_marks} zeroes them from those
   lists when the event ends, on the patched path and the fallback
   alike.  So the marks cost O(touched) per event and a byte per node,
   not a stamp word per node and table. *)
let aff = 1  (* invalidated by this fault, or revived by this repair *)
let settled = 2  (* its level is final for this event *)
let nk = 4  (* a representative whose necklace this event re-derives *)

let rec clear_list (m : Fa.Byte.t) (v : vec) i =
  if i < v.len then begin
    m.{v.buf.(i)} <- 0;
    clear_list m v (i + 1)
  end

let clear_marks t =
  clear_list t.mark t.affected 0;
  clear_list t.mark t.changed 0;
  clear_list t.mark t.marked 0;
  clear_list t.wmark t.dirty 0
[@@lint.hot]

(* ------------------------------------------------------------------ *)
(* full recompute: initialization and the safety-net fallback          *)

let set_empty t =
  I32.fill t.rep (-1);
  I32.fill t.dist (-1);
  Fa.Byte.fill t.digit.Succ_digit.bytes Succ_digit.outside;
  I32.fill t.chosen (-1);
  I32.fill t.bucket_head (-1);
  Array.fill t.hist 0 (Array.length t.hist) 0;
  t.root <- -1;
  t.bsize <- 0;
  t.ecc <- 0

(* Rebuild every Live-owned table from a finished [Embed.t].  The
   embed's arrays may alias the shared workspace, so everything is
   copied out: Live's tables must survive the workspace's next use.
   Y and the label buckets are the batch result's own ([chosen] per
   necklace index), re-keyed by representative. *)
let load t (e : Embed.t) =
  let tree = e.Embed.modified.Spanning.tree in
  let adj = tree.Spanning.adj in
  let reps = adj.Adjacency.reps in
  let idx_of_node = adj.Adjacency.idx_of_node in
  I32.blit e.Embed.bstar.Bstar.dist t.dist;
  Succ_digit.blit e.Embed.modified.Spanning.digit t.digit;
  t.root <- e.Embed.bstar.Bstar.root;
  t.bsize <- e.Embed.bstar.Bstar.size;
  t.ecc <- e.Embed.bstar.Bstar.ecc;
  ensure_hist t t.ecc;
  Array.fill t.hist 0 (Array.length t.hist) 0;
  for v = 0 to t.p.W.size - 1 do
    let i = Int32.to_int idx_of_node.{v} in
    if i >= 0 then begin
      t.rep.{v} <- Int32.of_int reps.(i);
      hist_inc t (Int32.to_int t.dist.{v})
    end
    else t.rep.{v} <- -1l
  done;
  I32.fill t.chosen (-1);
  I32.fill t.bucket_head (-1);
  Array.iteri
    (fun i r ->
      let y = tree.Spanning.chosen.{i} in
      t.chosen.{r} <- Int32.of_int y;
      if i <> tree.Spanning.root_idx then begin
        let w = y / t.p.W.d in
        t.bucket_next.{r} <- t.bucket_head.{w};
        t.bucket_head.{w} <- Int32.of_int r
      end)
    reps

let recompute t =
  t.c_recomputed <- t.c_recomputed + 1;
  let faults = current_faults t in
  match Embed.embed ?root_hint:t.root_hint ?ws:t.ws t.p ~faults with
  | None -> set_empty t
  | Some e -> load t e

(* ------------------------------------------------------------------ *)
(* the derived-structure patch: recompute chosen / labels / D-edges of
   exactly the necklaces the BFS repair touched                         *)

let mark_necklace t r =
  let m = t.mark.{r} in
  if m land nk = 0 then begin
    t.mark.{r} <- m lor nk;
    vec_push t.marked r
  end

let dirty_bucket t w =
  if t.wmark.{w} = 0 then begin
    t.wmark.{w} <- 1;
    vec_push t.dirty w
  end

let bucket_unlink t w r =
  if Int32.to_int t.bucket_head.{w} = r then
    t.bucket_head.{w} <- t.bucket_next.{r}
  else begin
    let c = ref (Int32.to_int t.bucket_head.{w}) in
    while !c >= 0 && Int32.to_int t.bucket_next.{!c} <> r do
      c := Int32.to_int t.bucket_next.{!c}
    done;
    if !c >= 0 then t.bucket_next.{!c} <- t.bucket_next.{r}
  end

(* Step 1.2 on one live necklace: the lexicographic (dist, node) minimum
   over the rotations of [y], walked until back at [r]. *)
let rec earliest (dist : I32.t) stride d r best y =
  let dy = Int32.to_int dist.{y} and db = Int32.to_int dist.{best} in
  let best = if dy < db || (dy = db && y < best) then y else best in
  let y' = (y mod stride * d) + (y / stride) in
  if y' = r then best else earliest dist stride d r best y'
[@@lint.hot]

exception Fallback

(* Copy the bucket chain from [r] into [t.members] from slot [k] on,
   checking that every chosen node's T′ parent lies on one necklace
   [pr] (the height-one property), then append [pr]; returns the class
   size.  Raises [Fallback] on a missing or split parent. *)
let rec collect_class t stride d r k pr =
  if r < 0 then begin
    t.members.{k} <- pr;
    k + 1
  end
  else begin
    let y = Int32.to_int t.chosen.{r} in
    let py =
      Spanning.find_parent t.dist stride d (y / d) (Int32.to_int t.dist.{y}) 0
    in
    if py < 0 || (pr >= 0 && Int32.to_int t.rep.{py} <> pr) then raise Fallback;
    t.members.{k} <- r;
    collect_class t stride d
      (Int32.to_int t.bucket_next.{r})
      (k + 1)
      (Int32.to_int t.rep.{py})
  end
[@@lint.hot]

(* Patch [chosen] / bucket membership / succ overrides for every
   necklace containing a changed node or a successor of one.  Raises
   [Fallback] if a height-one invariant check fails (never on a
   well-formed state; the caller then runs the full recompute). *)
let patch_derived t =
  let p = t.p in
  let d = p.W.d in
  let stride = p.W.size / d in
  let root_rep = Int32.to_int t.rep.{t.root} in
  vec_clear t.marked;
  vec_clear t.dirty;
  (* necklaces of changed nodes, and of their B* successors (whose
     chosen's parent pointer may silently retarget) *)
  for i = 0 to t.changed.len - 1 do
    let c = t.changed.buf.(i) in
    (* a node that just left B* is no longer in the table *)
    let r = Int32.to_int t.rep.{c} in
    mark_necklace t (if r >= 0 then r else Nk.canonical p c);
    let sw = c mod stride * d in
    for b = 0 to d - 1 do
      let r = Int32.to_int t.rep.{sw + b} in
      if r >= 0 then mark_necklace t r
    done
  done;
  for i = 0 to t.marked.len - 1 do
    let r = t.marked.buf.(i) in
    let old_chosen = Int32.to_int t.chosen.{r} in
    if old_chosen >= 0 && r <> root_rep then begin
      let old_w = old_chosen / d in
      bucket_unlink t old_w r;
      dirty_bucket t old_w
    end;
    if Int32.to_int t.rep.{r} >= 0 then begin
      let y = earliest t.dist stride d r r r in
      t.chosen.{r} <- Int32.of_int y;
      if r <> root_rep then begin
        let w = y / d in
        t.bucket_next.{r} <- t.bucket_head.{w};
        t.bucket_head.{w} <- Int32.of_int r;
        dirty_bucket t w
      end
    end
    else t.chosen.{r} <- -1l
  done;
  (* rebuild every dirty bucket: reset the suffix-w digits to the
     necklace rotation (αw's digit is α), then relink the class with
     the batch stage's Step-2 rule *)
  for i = 0 to t.dirty.len - 1 do
    let w = t.dirty.buf.(i) in
    for a = 0 to d - 1 do
      let x = (a * stride) + w in
      if Int32.to_int t.rep.{x} >= 0 then Succ_digit.set t.digit x a
    done;
    let head = Int32.to_int t.bucket_head.{w} in
    if head >= 0 then begin
      let k = collect_class t stride d head 0 (-1) in
      if not (Spanning.link_class p t.rep t.members k w t.digit) then
        raise Fallback
    end
  done
[@@lint.hot]

(* ------------------------------------------------------------------ *)
(* fault: splice the dead necklace out and repair distances downstream  *)

let rec supported t stride d pre dv a =
  if a = d then false
  else
    let u = (a * stride) + pre in
    if
      Int32.to_int t.rep.{u} >= 0
      && t.mark.{u} land aff = 0
      && Int32.to_int t.dist.{u} = dv - 1
    then true
    else supported t stride d pre dv (a + 1)

let remove_necklace t rep =
  let p = t.p in
  let d = p.W.d in
  let stride = p.W.size / d in
  vec_clear t.queue;
  vec_clear t.affected;
  vec_clear t.changed;
  (* 1. drop the necklace's nodes *)
  Nk.iter_nodes_from p rep
    ((fun y ->
       t.rep.{y} <- -1l;
       hist_dec t (Int32.to_int t.dist.{y});
       t.dist.{y} <- -1l;
       Succ_digit.set_outside t.digit y;
       t.bsize <- t.bsize - 1;
       vec_push t.changed y)
    [@lint.allow
      "R7 necklace-drop callback: one closure per removed necklace, \
       amortized over its <= w nodes"]);
  (* 2. identify downstream nodes whose BFS level lost all support.
     Invalidation is conservative (an affected predecessor does not
     support), so phase 3 recomputes an exact superset of the nodes
     whose distance really moves. *)
  for i = 0 to t.changed.len - 1 do
    let y = t.changed.buf.(i) in
    let sw = y mod stride * d in
    for b = 0 to d - 1 do
      let z = sw + b in
      if Int32.to_int t.rep.{z} >= 0 then vec_push t.queue z
    done
  done;
  let qi = (ref 0 [@lint.allow "R7 one invalidation-queue cursor per event"]) in
  while !qi < t.queue.len do
    let z = t.queue.buf.(!qi) in
    incr qi;
    if
      Int32.to_int t.rep.{z} >= 0
      && t.mark.{z} land aff = 0
      && z <> t.root
      && not (supported t stride d (z / d) (Int32.to_int t.dist.{z}) 0)
    then begin
      t.mark.{z} <- aff;
      vec_push t.affected z;
      let sw = z mod stride * d in
      for b = 0 to d - 1 do
        let s = sw + b in
        if Int32.to_int t.rep.{s} >= 0 && t.mark.{s} land aff = 0 then
          vec_push t.queue s
      done
    end
  done;
  (* 3. exact multi-source relayering of the affected set from its
     unaffected boundary (deletions only increase distances, so
     unaffected levels are final).  A node may sit in several levels of
     the bucket queue; the levels pop in ascending order, so its first
     pop is its final level and a later copy meets its [settled] bit. *)
  bq_reset t;
  for i = 0 to t.affected.len - 1 do
    let v = t.affected.buf.(i) in
    let pre = v / d in
    let best =
      (ref max_int [@lint.allow "R7 one boundary-seed ref per affected node"])
    in
    for a = 0 to d - 1 do
      let u = (a * stride) + pre in
      let du = Int32.to_int t.dist.{u} in
      if Int32.to_int t.rep.{u} >= 0 && t.mark.{u} land aff = 0 && du + 1 < !best
      then best := du + 1
    done;
    if !best < max_int then bq_push t !best v
  done;
  let dv = (ref 0 [@lint.allow "R7 one level cursor per event"]) in
  while !dv <= t.bq_hi do
    let level = t.bq.(!dv) in
    let li = (ref 0 [@lint.allow "R7 one within-level cursor per level"]) in
    while !li < level.len do
      let v = level.buf.(!li) in
      incr li;
      if t.mark.{v} = aff then begin
        t.mark.{v} <- aff lor settled;
        let old = Int32.to_int t.dist.{v} in
        if old <> !dv then begin
          hist_dec t old;
          t.dist.{v} <- Int32.of_int !dv;
          hist_inc t !dv;
          vec_push t.changed v
        end;
        let sw = v mod stride * d in
        for b = 0 to d - 1 do
          let s = sw + b in
          if Int32.to_int t.rep.{s} >= 0 && t.mark.{s} = aff then
            bq_push t (!dv + 1) s
        done
      end
    done;
    incr dv
  done;
  (* 4. affected nodes that never resettled are cut off from the root:
     they leave B* (their live necklaces are now a smaller component) *)
  for i = 0 to t.affected.len - 1 do
    let v = t.affected.buf.(i) in
    if t.mark.{v} land settled = 0 then begin
      t.rep.{v} <- -1l;
      hist_dec t (Int32.to_int t.dist.{v});
      t.dist.{v} <- -1l;
      Succ_digit.set_outside t.digit v;
      t.bsize <- t.bsize - 1;
      vec_push t.changed v
    end
  done
[@@lint.hot]

(* ------------------------------------------------------------------ *)
(* repair: graft the revived necklace back and relax shortcuts          *)

(* true iff the revived necklace has any De Bruijn edge to or from the
   current B* *)
let adjacent_to_bstar t rep =
  let p = t.p in
  let d = p.W.d in
  let stride = p.W.size / d in
  let hit = ref false in
  Nk.iter_nodes_from p rep (fun y ->
      if not !hit then begin
        let pre = y / d in
        let sw = y mod stride * d in
        for a = 0 to d - 1 do
          if
            Int32.to_int t.rep.{(a * stride) + pre} >= 0
            || Int32.to_int t.rep.{sw + a} >= 0
          then hit := true
        done
      end);
  !hit

let insert_necklace t rep =
  let p = t.p in
  let d = p.W.d in
  let stride = p.W.size / d in
  vec_clear t.affected;
  vec_clear t.changed;
  bq_reset t;
  (* tentative levels for the revived nodes from their settled B*
     predecessors; everything else improves by relaxation.  As in
     [remove_necklace], a node's first pop from the bucket queue is at
     its final level. *)
  Nk.iter_nodes_from p rep (fun y ->
      t.mark.{y} <- aff;
      vec_push t.affected y;
      let pre = y / d in
      let best = ref max_int in
      for a = 0 to d - 1 do
        let u = (a * stride) + pre in
        let du = Int32.to_int t.dist.{u} in
        if Int32.to_int t.rep.{u} >= 0 && du + 1 < !best then best := du + 1
      done;
      if !best < max_int then bq_push t !best y);
  let dv = ref 0 in
  while !dv <= t.bq_hi do
    let level = t.bq.(!dv) in
    let li = ref 0 in
    while !li < level.len do
      let v = level.buf.(!li) in
      incr li;
      let m = t.mark.{v} in
      let settle_revived = m = aff in
      let relax_existing =
        m = 0
        && Int32.to_int t.rep.{v} >= 0
        && Int32.to_int t.dist.{v} = !dv
      in
      if settle_revived then begin
        t.rep.{v} <- Int32.of_int rep;
        t.dist.{v} <- Int32.of_int !dv;
        Succ_digit.set t.digit v (v / stride);
        t.bsize <- t.bsize + 1;
        hist_inc t !dv;
        vec_push t.changed v
      end;
      if settle_revived || relax_existing then begin
        t.mark.{v} <- m lor settled;
        let sw = v mod stride * d in
        for b = 0 to d - 1 do
          let s = sw + b in
          let ms = t.mark.{s} in
          if ms land aff <> 0 then begin
            if ms = aff then bq_push t (!dv + 1) s
          end
          else if
            Int32.to_int t.rep.{s} >= 0 && Int32.to_int t.dist.{s} > !dv + 1
          then begin
            (* a strictly shorter path through the revived necklace:
               improvements arrive in ascending level order, so each
               existing node moves at most once *)
            hist_dec t (Int32.to_int t.dist.{s});
            t.dist.{s} <- Int32.of_int (!dv + 1);
            hist_inc t (!dv + 1);
            vec_push t.changed s;
            bq_push t (!dv + 1) s
          end
        done
      end
    done;
    incr dv
  done;
  (* the merged component is strongly connected (the removed set is a
     union of necklaces), so every revived node must have settled *)
  Nk.iter_nodes_from p rep (fun y ->
      if t.mark.{y} land settled = 0 then raise Fallback)

(* ------------------------------------------------------------------ *)
(* event dispatch                                                       *)

let nk_fault_count t rep =
  match Hashtbl.find_opt t.nk_faults rep with Some c -> c | None -> 0

let finish_patch t =
  match patch_derived t with
  | () ->
      t.c_patched <- t.c_patched + 1;
      t.c_affected <- t.c_affected + t.changed.len;
      t.c_last_affected <- t.changed.len;
      Patched
  | exception Fallback ->
      recompute t;
      Recomputed

let do_fault t v =
  t.faulty.{v} <- 1;
  t.fault_count <- t.fault_count + 1;
  let rep = Nk.canonical t.p v in
  let c = nk_fault_count t rep in
  Hashtbl.replace t.nk_faults rep (c + 1);
  if c > 0 then begin
    (* the necklace was already out of B* *)
    t.c_unchanged <- t.c_unchanged + 1;
    Unchanged
  end
  else begin
    t.live_nodes <- t.live_nodes - Nk.length t.p rep;
    if Int32.to_int t.rep.{rep} < 0 then begin
      (* a live-but-excluded necklace died: B* was strictly larger than
         every excluded component and those only shrank, so B*, its
         root and its distances are all unchanged *)
      t.c_unchanged <- t.c_unchanged + 1;
      Unchanged
    end
    else if t.bsize = 0 || rep = Int32.to_int t.rep.{t.root} then begin
      recompute t;
      Recomputed
    end
    else begin
      remove_necklace t rep;
      (* B* must stay the unique largest component: compare against the
         total excluded live mass (an upper bound on any rival) *)
      let outcome =
        if t.bsize <= t.live_nodes - t.bsize then begin
          recompute t;
          Recomputed
        end
        else finish_patch t
      in
      clear_marks t;
      outcome
    end
  end

let do_repair t v =
  t.faulty.{v} <- 0;
  t.fault_count <- t.fault_count - 1;
  let rep = Nk.canonical t.p v in
  let c = nk_fault_count t rep in
  if c > 1 then begin
    Hashtbl.replace t.nk_faults rep (c - 1);
    t.c_unchanged <- t.c_unchanged + 1;
    Unchanged
  end
  else begin
    Hashtbl.remove t.nk_faults rep;
    let excluded_before = t.live_nodes - t.bsize in
    t.live_nodes <- t.live_nodes + Nk.length t.p rep;
    let root_changes =
      match t.root_hint with
      | Some h ->
          let rh = Nk.canonical t.p h in
          (* the hint's own necklace reviving re-roots at the hint;
             otherwise we are in smallest-member mode whenever the
             current root is not the hint *)
          rep = rh || (t.root <> rh && rep < t.root)
      | None -> t.bsize = 0 || rep < t.root
    in
    if t.bsize = 0 || excluded_before > 0 || root_changes then begin
      recompute t;
      Recomputed
    end
    else if not (adjacent_to_bstar t rep) then
      (* an isolated revived necklace is its own small component; B*
         stays the largest unless the instance is tiny *)
      if t.bsize <= t.live_nodes - t.bsize then begin
        recompute t;
        Recomputed
      end
      else begin
        t.c_unchanged <- t.c_unchanged + 1;
        Unchanged
      end
    else begin
      let outcome =
        match insert_necklace t rep with
        | () -> finish_patch t
        | exception Fallback ->
            recompute t;
            Recomputed
      in
      clear_marks t;
      outcome
    end
  end

let apply t ev =
  let sz = t.p.W.size in
  let reject e =
    t.c_rejected <- t.c_rejected + 1;
    Error e
  in
  match ev with
  | Fault v when v < 0 || v >= sz -> reject (Out_of_range v)
  | Repair v when v < 0 || v >= sz -> reject (Out_of_range v)
  | Fault v when t.faulty.{v} <> 0 -> reject (Already_faulty v)
  | Repair v when t.faulty.{v} = 0 -> reject (Not_faulty v)
  | Fault v ->
      t.c_events <- t.c_events + 1;
      t.c_faults <- t.c_faults + 1;
      Ok (do_fault t v)
  | Repair v ->
      t.c_events <- t.c_events + 1;
      t.c_repairs <- t.c_repairs + 1;
      Ok (do_repair t v)

(* ------------------------------------------------------------------ *)

let create ?root_hint ?ws p ~faults =
  I32.check_nodes p.W.size;
  (match ws with Some w -> Workspace.check w p | None -> ());
  let sz = p.W.size in
  let t =
    {
      p;
      root_hint;
      ws;
      faulty = Fa.Byte.make sz 0;
      nk_faults = Hashtbl.create 64;
      fault_count = 0;
      live_nodes = sz;
      rep = I32.make sz (-1);
      dist = I32.make sz (-1);
      digit = Succ_digit.create p;
      root = -1;
      bsize = 0;
      ecc = 0;
      chosen = I32.make sz (-1);
      bucket_head = I32.make (sz / p.W.d) (-1);
      bucket_next = I32.make sz (-1);
      hist = Array.make 64 0;
      mark = Fa.Byte.make sz 0;
      wmark = Fa.Byte.make (sz / p.W.d) 0;
      queue = vec_create ();
      affected = vec_create ();
      changed = vec_create ();
      marked = vec_create ();
      dirty = vec_create ();
      members = Fa.make (p.W.d + 1) 0;
      bq = Array.init 16 (fun _ -> vec_create ());
      bq_hi = -1;
      c_events = 0;
      c_faults = 0;
      c_repairs = 0;
      c_rejected = 0;
      c_patched = 0;
      c_recomputed = 0;
      c_unchanged = 0;
      c_affected = 0;
      c_last_affected = 0;
    }
  in
  List.iter
    (fun v ->
      if v < 0 || v >= sz then invalid_arg "Ffc.Live.create: fault out of range";
      if t.faulty.{v} = 0 then begin
        t.faulty.{v} <- 1;
        t.fault_count <- t.fault_count + 1;
        let rep = Nk.canonical p v in
        let c = nk_fault_count t rep in
        Hashtbl.replace t.nk_faults rep (c + 1);
        if c = 0 then t.live_nodes <- t.live_nodes - Nk.length p rep
      end)
    faults;
  (match Embed.embed ?root_hint ?ws p ~faults:(current_faults t) with
  | None -> set_empty t
  | Some e -> load t e);
  t

let ring t =
  if t.bsize = 0 then None
  else begin
    let c = Array.make t.bsize 0 in
    if Succ_digit.walk t.p t.digit t.root c <> t.bsize then
      Pipeline_error.raise_error ~stage:"Live" "the ring's digits did not close into a cycle";
    Some c
  end
