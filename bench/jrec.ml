(* Shared --json recorder for the bench sections.

   Each section accumulates flat JSON objects with [record] and dumps
   them with [write] (which also clears the buffer, so sections running
   in one process never leak rows into each other's files).  Values are
   pre-encoded strings, so no JSON library is needed.

   [time_gc] is the uniform measurement wrapper: wall clock plus the
   minor/major-heap words allocated by the thunk, letting every section
   report allocation next to speed and the CI gate window both.  Minor
   words come from [Gc.minor_words], exact for the calling domain;
   [Gc.counters] misreads them on OCaml 5.1 (1/8 of the true count
   while no minor collection falls inside the window, up to a whole
   minor heap over when one does).  Major words still come from
   [Gc.counters], read outside the minor window so its own tuple is
   not counted.  Both are calling-domain counts: a section that spawns
   domains reports what the coordinating domain allocated, not its
   workers. *)

let rows : string list ref = ref []
[@@lint.domain_safe
  "sections record from the coordinating domain only, after worker joins"]
let jstr s = Printf.sprintf "%S" s
let jint (i : int) = string_of_int i
let jnum f = Printf.sprintf "%.6f" f
let jbool = string_of_bool

let record fields =
  rows :=
    ("  {"
    ^ String.concat ", "
        (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k v) fields)
    ^ "}")
    :: !rows

let write path =
  let oc = open_out path in
  output_string oc "[\n";
  output_string oc (String.concat ",\n" (List.rev !rows));
  output_string oc "\n]\n";
  close_out oc;
  Printf.printf "wrote %s (%d rows)\n" path (List.length !rows);
  rows := []

let time f =
  let t0 = Unix.gettimeofday () in
  let x = f () in
  (x, Unix.gettimeofday () -. t0)

type gc_timed = {
  wall_s : float;
  minor_words : float;
  major_words : float;
  max_rss_kb : int;
}

(* Peak resident set size (VmHWM) in kB, from /proc/self/status; 0 on
   platforms without procfs.  Monotone over the process lifetime, so
   the recorded value is the peak up to the end of the measured thunk —
   off-heap Bigarray arenas show up here but not in the GC words. *)
let max_rss_kb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> 0
        | line -> (
            match String.split_on_char ':' line with
            | "VmHWM" :: rest ->
                let toks = String.split_on_char ' ' (String.trim (String.concat ":" rest)) in
                List.fold_left
                  (fun acc tok ->
                    match acc with 0 -> Option.value ~default:0 (int_of_string_opt tok) | n -> n)
                  0 toks
            | _ -> scan ())
      in
      let kb = scan () in
      close_in ic;
      kb

let time_gc f =
  let _, _, mj0 = Gc.counters () in
  let mn0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  let x = f () in
  let wall_s = Unix.gettimeofday () -. t0 in
  let mn1 = Gc.minor_words () in
  let _, _, mj1 = Gc.counters () in
  ( x,
    {
      wall_s;
      minor_words = mn1 -. mn0;
      major_words = mj1 -. mj0;
      max_rss_kb = max_rss_kb ();
    } )

let gc_fields g =
  [
    ("wall_s", jnum g.wall_s);
    ("minor_words", jnum g.minor_words);
    ("major_words", jnum g.major_words);
    ("max_rss_kb", jint g.max_rss_kb);
  ]

let top_heap_words () = (Gc.quick_stat ()).Gc.top_heap_words
