module W = Debruijn.Word
module Nk = Debruijn.Necklace
module Fa = Graphlib.Flatarr
module It = Graphlib.Itopo

type t = {
  p : W.params;
  graph : Graphlib.Digraph.t Lazy.t;
  faults : int list;
  necklace_faulty : Fa.Byte.t;
  in_bstar : Fa.Byte.t;
  size : int;
  root : int;
}

let succs p = fun x f -> W.iter_succs p x f
let preds p = fun x f -> W.iter_preds p x f

(* Byte-flag variant of [Nk.mark_faulty_necklaces_into]: walk each
   faulty node's rotation cycle directly. *)
let mark_faulty_necklaces_byte p faults (buf : Fa.Byte.t) =
  if Fa.Byte.length buf <> p.W.size then
    invalid_arg "Bstar: necklace_faulty buffer sized wrong";
  Fa.Byte.fill buf 0;
  List.iter (fun x -> Nk.iter_nodes_from p x (fun y -> buf.{y} <- 1)) faults

(* [get i] for i ∈ [start, start+len) enumerates the chosen component,
   [len > 0]; [in_bstar] must be all-zero on entry (fresh, or refilled
   by the workspace path). *)
let finish p faults necklace_faulty (in_bstar : Fa.Byte.t) ~get start len
    root_hint =
  (* One pass: mark membership and track the smallest member, which —
     being minimal on its necklace — is itself a representative. *)
  let best = ref max_int in
  for i = start to start + len - 1 do
    let v = get i in
    in_bstar.{v} <- 1;
    if v < !best then best := v
  done;
  let root =
    match root_hint with
    | Some h when h >= 0 && h < p.W.size && in_bstar.{Nk.canonical p h} <> 0 ->
        Nk.canonical p h
    | _ -> !best
  in
  Some
    {
      p;
      graph = lazy (Debruijn.Graph.b p);
      faults;
      necklace_faulty;
      in_bstar;
      size = len;
      root;
    }

(* Successor-only sweeps below: the removed set is a union of
   necklaces, so every weak component is strongly connected (see the
   header above) — directed reachability from a seed already covers its
   whole weak component, at half the edge work of the symmetric
   closure. *)

let compute ?root_hint ?domains ?ws p ~faults =
  match ws with
  | None ->
      let necklace_faulty = Fa.Byte.create p.W.size in
      mark_faulty_necklaces_byte p faults necklace_faulty;
      let members =
        It.largest_weak_component ?domains ~n:p.W.size ~succs:(succs p)
          ~preds:It.no_preds
          ~keep:(fun v -> necklace_faulty.{v} = 0)
          ()
      in
      let len = Array.length members in
      if len = 0 then None
      else
        finish p faults necklace_faulty
          (Fa.Byte.make p.W.size 0)
          ~get:(fun i -> members.(i))
          0 len root_hint
  | Some w ->
      Workspace.check w p;
      let necklace_faulty = w.Workspace.necklace_faulty in
      mark_faulty_necklaces_byte p faults necklace_faulty;
      let order, start, len =
        It.largest_weak_component_span ?domains ~ws:w.Workspace.it
          ~n:p.W.size ~succs:(succs p) ~preds:It.no_preds
          ~keep:(fun v -> necklace_faulty.{v} = 0)
          ()
      in
      if len = 0 then None
      else begin
        let in_bstar = w.Workspace.in_bstar in
        Fa.Byte.fill in_bstar 0;
        finish p faults necklace_faulty in_bstar
          ~get:(fun i -> order.{i})
          start len root_hint
      end

let component_members p ~faults node =
  let necklace_faulty = Nk.mark_faulty_necklaces p faults in
  if necklace_faulty.(node) then [||]
  else
    It.component_members ~n:p.W.size ~succs:(succs p) ~preds:(preds p)
      ~keep:(fun v -> not necklace_faulty.(v))
      node

let component_of p ~faults node =
  let necklace_faulty = Fa.Byte.create p.W.size in
  mark_faulty_necklaces_byte p faults necklace_faulty;
  if necklace_faulty.{node} <> 0 then None
  else
    let members =
      It.component_members ~n:p.W.size ~succs:(succs p) ~preds:(preds p)
        ~keep:(fun v -> necklace_faulty.{v} = 0)
        node
    in
    let len = Array.length members in
    if len = 0 then None
    else
      finish p faults necklace_faulty
        (Fa.Byte.make p.W.size 0)
        ~get:(fun i -> members.(i))
        0 len (Some node)

let fault_probe t =
  let size = t.p.W.size in
  let mask = Graphlib.Bitset.create size in
  List.iter (fun v -> if v >= 0 && v < size then Graphlib.Bitset.add mask v) t.faults;
  fun v -> v >= 0 && v < size && Graphlib.Bitset.mem mask v

let nodes t =
  let acc = ref [] in
  for v = t.p.W.size - 1 downto 0 do
    if t.in_bstar.{v} <> 0 then acc := v :: !acc
  done;
  !acc

let necklace_count t =
  (* Ascending sweep: the first node seen of each necklace is its
     minimal rotation, i.e. the representative — one O(size) pass, no
     canonical-form computation. *)
  let seen = Graphlib.Bitset.create t.p.W.size in
  let count = ref 0 in
  for v = 0 to t.p.W.size - 1 do
    if t.in_bstar.{v} <> 0 && not (Graphlib.Bitset.mem seen v) then begin
      incr count;
      Nk.iter_nodes_from t.p v (fun y -> Graphlib.Bitset.add seen y)
    end
  done;
  !count

let eccentricity_of_root ?ws t =
  let itws =
    match ws with
    | None -> None
    | Some w ->
        Workspace.check w t.p;
        Some w.Workspace.it
  in
  let in_bstar = t.in_bstar in
  It.eccentricity ?ws:itws ~n:t.p.W.size ~succs:(succs t.p)
    ~keep:(fun v -> in_bstar.{v} <> 0)
    t.root

let diameter t =
  let in_bstar = t.in_bstar in
  let keep v = in_bstar.{v} <> 0 in
  let best = ref 0 in
  for v = 0 to t.p.W.size - 1 do
    if t.in_bstar.{v} <> 0 then
      best :=
        max !best (It.eccentricity ~n:t.p.W.size ~succs:(succs t.p) ~keep v)
  done;
  !best

let is_strongly_connected t =
  let in_bstar = t.in_bstar in
  It.is_strongly_connected ~n:t.p.W.size ~succs:(succs t.p) ~preds:(preds t.p)
    ~keep:(fun v -> in_bstar.{v} <> 0)
    ()
