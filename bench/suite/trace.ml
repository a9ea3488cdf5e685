(* In-memory span recorder for the traced run (--trace FILE).

   A span wraps one call into a layer's public function, made from the
   benchmark's own code.  Each span keeps its name, start and end on the
   monotonic clock, the span it nests in, the id of the operation it
   belongs to, and the minor-heap words the calling domain allocated
   between its boundaries.  Spans stay in memory until the run ends and
   are then written as Chrome trace-event JSON (load the file in
   chrome://tracing or Perfetto).

   A layer's self time is its span's duration minus the durations of
   its direct children; the parent of a composed call therefore keeps
   exactly the time no child accounts for, which the workloads report
   as [*.unattributed_ms].  Durations measured inside the library (the
   netsim round traces) become synthetic child spans, laid end to end
   from the parent's start. *)

type span = {
  id : int;
  name : string;
  op : int;  (** operation id, −1 for set-up and checks *)
  parent : int;  (** −1 at top level *)
  t0 : int;
  t1 : int;
  words : float;  (** minor words allocated by the calling domain *)
  synthetic : bool;
}

type t = {
  mutable spans : span list;  (** most recent first *)
  mutable next_id : int;
  mutable stack : int list;  (** open spans, innermost first *)
  mutable op : int;
}

let create () = { spans = []; next_id = 0; stack = []; op = -1 }

let fresh_id t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

(* [span tr name ~children f] runs [f] inside a span — or just runs it
   when tracing is off.  [children] turns the result into synthetic
   child spans (name, nanoseconds), placed back to back from the span's
   start. *)
let span ?(children = fun _ -> []) tr name f =
  match tr with
  | None -> f ()
  | Some t -> (
      let id = fresh_id t in
      let parent = match t.stack with p :: _ -> p | [] -> -1 in
      t.stack <- id :: t.stack;
      let w0 = Gc.minor_words () in
      let t0 = Measure.now_ns () in
      let close () =
        let t1 = Measure.now_ns () in
        let words = Gc.minor_words () -. w0 in
        t.stack <- List.tl t.stack;
        t.spans <- { id; name; op = t.op; parent; t0; t1; words; synthetic = false } :: t.spans
      in
      match f () with
      | x ->
          close ();
          let at = ref t0 in
          List.iter
            (fun (cname, ns) ->
              t.spans <-
                {
                  id = fresh_id t;
                  name = cname;
                  op = t.op;
                  parent = id;
                  t0 = !at;
                  t1 = !at + ns;
                  words = 0.;
                  synthetic = true;
                }
                :: t.spans;
              at := !at + ns)
            (children x);
          x
      | exception e ->
          close ();
          raise e)

let with_op tr op = match tr with None -> () | Some t -> t.op <- op

(* ---- aggregation -------------------------------------------------- *)

let child_ns t =
  let h = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        let prev = Option.value ~default:0 (Hashtbl.find_opt h s.parent) in
        Hashtbl.replace h s.parent (prev + (s.t1 - s.t0)))
    t.spans;
  h

let named t name = List.filter (fun s -> String.equal s.name name) t.spans
let count t name = List.length (named t name)

let total_ns t name =
  List.fold_left (fun acc s -> acc + (s.t1 - s.t0)) 0 (named t name)

let self_ns t name =
  let kids = child_ns t in
  List.fold_left
    (fun acc s ->
      let c = Option.value ~default:0 (Hashtbl.find_opt kids s.id) in
      acc + (s.t1 - s.t0) - c)
    0 (named t name)

let words t name = List.fold_left (fun acc s -> acc +. s.words) 0. (named t name)

(* Per-call means in milliseconds ([per] calls), the form every layer
   metric is reported in; 0 when the layer never ran. *)
let per_ms ~per ns = if per = 0 then 0. else Measure.ms_of_ns ns /. float_of_int per
let self_ms ~per t name = per_ms ~per (self_ns t name)
let total_ms ~per t name = per_ms ~per (total_ns t name)

(* ---- Chrome trace-event output ------------------------------------- *)

let write_chrome t path =
  let spans = List.rev t.spans in
  let base = List.fold_left (fun acc s -> min acc s.t0) max_int spans in
  let oc = open_out path in
  output_string oc "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  List.iteri
    (fun i s ->
      if i > 0 then output_string oc ",\n";
      Printf.fprintf oc
        "{\"name\":%S,\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1,\"args\":{\"id\":%d,\"parent\":%d,\"op\":%d,\"minor_words\":%.0f}}"
        s.name
        (if s.synthetic then "library" else "suite")
        (float_of_int (s.t0 - base) /. 1e3)
        (float_of_int (s.t1 - s.t0) /. 1e3)
        s.id s.parent s.op s.words)
    spans;
  output_string oc "\n]}\n";
  close_out oc
