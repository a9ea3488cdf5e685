(* Regression tests for the debruijn-lint hot-path rule (R7): generated
   fixture trees are linted with the real binary (path in the
   DEBRUIJN_LINT environment variable, wired by the dune action) and
   the exit code and reported rule/line pairs are checked against the
   generator's own accounting. *)

let lint_exe =
  match Sys.getenv_opt "DEBRUIJN_LINT" with
  | Some p when p <> "" ->
      if Filename.is_relative p then Filename.concat (Sys.getcwd ()) p else p
  | _ -> failwith "DEBRUIJN_LINT not set; run via dune runtest"

let with_temp_dir f =
  let dir = Filename.temp_file "lintfix" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun n -> Sys.remove (Filename.concat dir n))
        (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f dir)

let write_file dir name contents =
  let oc = open_out (Filename.concat dir name) in
  output_string oc contents;
  close_out oc

(* Run the linter in --json mode on [dir]: (exit code, combined output). *)
let run_lint dir =
  let out = Filename.temp_file "lintout" ".json" in
  let cmd =
    Printf.sprintf "%s --json %s > %s 2>&1" (Filename.quote lint_exe)
      (Filename.quote dir) (Filename.quote out)
  in
  let code = Sys.command cmd in
  let ic = open_in_bin out in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove out;
  (code, s)

let lint_src src =
  with_temp_dir (fun dir ->
      write_file dir "gen.ml" src;
      run_lint dir)

let count_sub s sub =
  let ls = String.length s and lsub = String.length sub in
  let n = ref 0 in
  for i = 0 to ls - lsub do
    if String.sub s i lsub = sub then incr n
  done;
  !n

let has_finding out ~rule ~line =
  (* The emitter prints one finding per line, so rule and location of
     the same finding share a line of output. *)
  String.split_on_char '\n' out
  |> List.exists (fun l ->
         count_sub l (Printf.sprintf "\"rule\": \"%s\"" rule) > 0
         && count_sub l (Printf.sprintf "\"line\": %d" line) > 0)

let pad_lines pad = String.concat "" (List.init pad (fun _ -> "(* pad *)\n"))

(* --- R7: zero-alloc hot scopes ------------------------------------ *)

(* One allocation construct in the loop body of a hot kernel, at line
   pad+3. *)
let r7_allocs = [ "(i, i + 1)"; "Array.make 2 0"; "[ i ]"; "Some i" ]

let r7_src ~pad ~alloc ~allowed =
  let site =
    match alloc with
    | None -> "i + 1"
    | Some a ->
        if allowed then "(" ^ a ^ " [@lint.allow \"R7 qcheck fixture\"])" else a
  in
  pad_lines pad ^ "let kernel n =\n" ^ "  (for i = 0 to n - 1 do\n"
  ^ "     ignore (" ^ site ^ ")\n" ^ "   done)\n" ^ "  [@lint.hot]\n"

let r7_violations =
  QCheck.Test.make ~count:16 ~name:"R7 flags the allocation at its line"
    QCheck.(pair (int_range 0 6) (int_range 0 3))
    (fun (pad, which) ->
      let alloc = List.nth r7_allocs which in
      let code, out =
        lint_src (r7_src ~pad ~alloc:(Some alloc) ~allowed:false)
      in
      code = 1
      && count_sub out "\"rule\": \"R7\"" = 1
      && has_finding out ~rule:"R7" ~line:(pad + 3))

let r7_alloc_free_clean =
  QCheck.Test.make ~count:10 ~name:"R7 accepts allocation-free kernels"
    QCheck.(int_range 0 6)
    (fun pad ->
      let code, out = lint_src (r7_src ~pad ~alloc:None ~allowed:false) in
      code = 0 && count_sub out "\"rule\"" = 0)

let r7_allow_suppresses =
  QCheck.Test.make ~count:16
    ~name:"R7 [@lint.allow] silences the site and stays live"
    QCheck.(pair (int_range 0 6) (int_range 0 3))
    (fun (pad, which) ->
      let alloc = List.nth r7_allocs which in
      let code, out =
        lint_src (r7_src ~pad ~alloc:(Some alloc) ~allowed:true)
      in
      code = 0 && count_sub out "\"rule\"" = 0)

let qsuite =
  [
    r7_violations;
    r7_alloc_free_clean;
    r7_allow_suppresses;
  ]

let () =
  Alcotest.run "lint"
    [
      ( "kernel-safety",
        List.map (fun t -> QCheck_alcotest.to_alcotest ~long:false t) qsuite );
    ]
