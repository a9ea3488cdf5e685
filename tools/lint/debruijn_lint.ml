(* debruijn-lint: the invariant-enforcing static-analysis pass.

   Usage: debruijn-lint [--json|--sarif] [--list-rules] PATH...

   Walks every .ml under the given paths (files or directories) with
   the rules of Lint_rules (R1-R5, R7 and R8; the retired R6's id is
   not reused) and reports findings as

     file:line:col: [Rn] message

   (or a JSON array with --json, or SARIF 2.1.0 with --sarif).  Exit
   status: 0 clean, 1 findings, 2 usage / parse errors.  Suppressions:
   [@lint.allow "Rn reason"] on an expression, [@@lint.allow ...] on a
   binding or structure item, [@@@lint.allow ...] for the rest of a
   module, and [@@lint.domain_safe "why"] for R3 (reason mandatory).
   Every suppression must silence a live finding or the R8 audit flags
   it.

   `dune build @lint` runs this over lib/, bench/ and bin/. *)

open Ppxlib

(* ---- file collection ----------------------------------------------- *)

let rec collect_ml acc path =
  if Sys.is_directory path then
    Array.fold_left
      (fun acc entry ->
        if entry = "_build" || entry = ".git" then acc
        else collect_ml acc (Filename.concat path entry))
      acc
      (Sys.readdir path)
  else if Filename.check_suffix path ".ml" then path :: acc
  else acc

let parse_impl path =
  let ic = open_in_bin path in
  let lexbuf = Lexing.from_channel ic in
  Lexing.set_filename lexbuf path;
  let result =
    try Ok (Parse.implementation lexbuf)
    with exn -> Error (Printexc.to_string exn)
  in
  close_in ic;
  result

(* ---- pass 1: per-file facts ----------------------------------------- *)

let uses_domain (str : structure) =
  let found = ref false in
  let scan =
    object
      inherit Ast_traverse.iter as super

      method! longident lid =
        (match Lint_rules.flat lid with
        | "Domain" :: _ :: _ -> found := true
        | _ -> ());
        super#longident lid
    end
  in
  scan#structure str;
  !found

let mutable_labels (str : structure) =
  let tbl = Hashtbl.create 8 in
  let scan =
    object
      inherit Ast_traverse.iter as super

      method! label_declaration ld =
        if ld.pld_mutable = Mutable then Hashtbl.replace tbl ld.pld_name.txt ();
        super#label_declaration ld
    end
  in
  scan#structure str;
  tbl

(* File-local module aliases ([module Fa = Graphlib.Flatarr] maps
   "Fa" -> "Flatarr"), so the R7 vocabulary resolves aliased calls
   the way the R1-R3 path matching already resolves qualified ones. *)
let module_aliases (str : structure) =
  let tbl = Hashtbl.create 8 in
  let scan =
    object
      inherit Ast_traverse.iter as super

      method! module_binding mb =
        (match (mb.pmb_name.txt, mb.pmb_expr.pmod_desc) with
        | Some alias, Pmod_ident { txt; _ } -> (
            match List.rev (Lint_rules.flat txt) with
            | target :: _ -> Hashtbl.replace tbl alias target
            | [] -> ())
        | _ -> ());
        super#module_binding mb
    end
  in
  scan#structure str;
  tbl

(* ---- suppression-aware walker -------------------------------------- *)

class walker (rules : Lint_rules.rule list) (ctx : Lint_rules.file_ctx)
  (add : Lint_rules.finding -> unit) =
  object (self)
    inherit Ast_traverse.iter as super

    (* Innermost frame first; each frame holds the suppression records
       attached to one node.  Consulting a record marks it fired — the
       R8 audit's liveness signal. *)
    val mutable stack : Lint_rules.suppression list list = []

    method private suppressed id =
      let rec go = function
        | [] -> false
        | frame :: rest -> (
            match
              List.find_opt
                (fun (s : Lint_rules.suppression) -> List.mem id s.Lint_rules.sids)
                frame
            with
            | Some s ->
                Lint_rules.fire s id;
                true
            | None -> go rest)
      in
      go stack

    method private emit : Lint_rules.emit =
      fun ~id ~loc msg ->
        if not (self#suppressed id) then
          add
            {
              Lint_rules.rule_id = id;
              file = ctx.Lint_rules.path;
              line = loc.loc_start.pos_lnum;
              col = loc.loc_start.pos_cnum - loc.loc_start.pos_bol;
              msg;
            }

    method private collect attrs =
      List.filter_map
        (fun a ->
          match Lint_rules.suppression_of_attr self#emit ctx a with
          | Some s when s.Lint_rules.swellformed -> Some s
          | _ -> None)
        attrs

    method private with_suppressions frame (f : unit -> unit) =
      stack <- frame :: stack;
      f ();
      stack <- List.tl stack

    method! expression e =
      let saved_ws = ctx.Lint_rules.ws_fun in
      (match e.pexp_desc with
      | Pexp_function (params, _, _) when Lint_rules.has_optional_ws_param params ->
          ctx.Lint_rules.ws_fun <- true
      | _ -> ());
      self#with_suppressions (self#collect e.pexp_attributes) (fun () ->
          List.iter (fun (r : Lint_rules.rule) -> r.on_expr self#emit ctx e) rules;
          super#expression e);
      ctx.Lint_rules.ws_fun <- saved_ws

    method! value_binding vb =
      self#with_suppressions (self#collect vb.pvb_attributes) (fun () ->
          super#value_binding vb)

    method! structure_item it =
      let inner_attrs =
        match it.pstr_desc with
        | Pstr_value (_, vbs) -> List.concat_map (fun vb -> vb.pvb_attributes) vbs
        | Pstr_module mb -> mb.pmb_attributes
        | Pstr_primitive vd -> vd.pval_attributes
        | _ -> []
      in
      self#with_suppressions (self#collect inner_attrs) (fun () ->
          List.iter (fun (r : Lint_rules.rule) -> r.on_str_item self#emit ctx it) rules;
          super#structure_item it)

    (* Floating [@@@lint.allow "..."] applies to the rest of the
       enclosing structure. *)
    method! structure items =
      let depth = List.length stack in
      List.iter
        (fun (it : structure_item) ->
          match it.pstr_desc with
          | Pstr_attribute a -> stack <- self#collect [ a ] :: stack
          | _ -> self#structure_item it)
        items;
      let rec unwind l = if List.length l > depth then unwind (List.tl l) else l in
      stack <- unwind stack
  end

(* ---- reporting ------------------------------------------------------ *)

let json_escape = Lint_sarif.json_escape

let print_human (f : Lint_rules.finding) =
  Printf.printf "%s:%d:%d: [%s] %s\n" f.file f.line f.col f.rule_id f.msg

let print_json findings =
  print_string "[";
  List.iteri
    (fun i (f : Lint_rules.finding) ->
      if i > 0 then print_string ",";
      Printf.printf "\n  {\"rule\": \"%s\", \"file\": \"%s\", \"line\": %d, \"col\": %d, \"message\": \"%s\"}"
        f.rule_id (json_escape f.file) f.line f.col (json_escape f.msg))
    findings;
  print_string (if findings = [] then "]\n" else "\n]\n")

let print_rules_json () =
  print_string "[";
  List.iteri
    (fun i (r : Lint_rules.rule) ->
      if i > 0 then print_string ",";
      Printf.printf "\n  {\"id\": \"%s\", \"summary\": \"%s\"}" r.Lint_rules.id
        (json_escape r.Lint_rules.summary))
    Lint_rules.all;
  print_string "\n]\n"

(* ---- driver --------------------------------------------------------- *)

let usage = "usage: debruijn-lint [--json|--sarif] [--list-rules] PATH..."

let () =
  let json = ref false in
  let sarif = ref false in
  let list_rules = ref false in
  let paths = ref [] in
  Array.iteri
    (fun i arg ->
      if i > 0 then
        match arg with
        | "--json" -> json := true
        | "--sarif" -> sarif := true
        | "--list-rules" -> list_rules := true
        | "--help" | "-h" ->
            print_endline usage;
            exit 0
        | _ when String.length arg > 0 && arg.[0] = '-' ->
            prerr_endline ("debruijn-lint: unknown option " ^ arg);
            prerr_endline usage;
            exit 2
        | path -> paths := path :: !paths)
    Sys.argv;
  if !list_rules then begin
    if !json then print_rules_json ()
    else
      List.iter
        (fun (r : Lint_rules.rule) ->
          Printf.printf "%s  %s\n" r.Lint_rules.id r.Lint_rules.summary)
        Lint_rules.all;
    exit 0
  end;
  let roots = List.rev !paths in
  if roots = [] then begin
    prerr_endline usage;
    exit 2
  end;
  List.iter
    (fun r ->
      if not (Sys.file_exists r) then begin
        prerr_endline ("debruijn-lint: no such path " ^ r);
        exit 2
      end)
    roots;
  let files = List.sort String.compare (List.fold_left collect_ml [] roots) in
  (* parse everything once *)
  let parsed =
    List.filter_map
      (fun path ->
        match parse_impl path with
        | Ok str -> Some (Lint_project.normalize path, str)
        | Error msg ->
            Printf.eprintf "debruijn-lint: cannot parse %s: %s\n" path msg;
            exit 2)
      files
  in
  (* pass 1: build the unit graph and mark Domain users *)
  let project = Lint_project.scan roots in
  let file_domain = Hashtbl.create 64 in
  List.iter
    (fun (path, str) ->
      let d = uses_domain str in
      Hashtbl.replace file_domain path d;
      if d then Lint_project.mark_domain_user project path)
    parsed;
  (* pass 2: run the rules, then audit each file's suppressions (R8) *)
  let findings = ref [] in
  let add f = findings := f :: !findings in
  List.iter
    (fun (path, str) ->
      let ctx =
        {
          Lint_rules.path;
          in_lib = Lint_project.under_dir "lib" path;
          domain_scope =
            Lint_project.in_domain_scope project path
            || Hashtbl.find file_domain path;
          mutable_labels = mutable_labels str;
          aliases = module_aliases str;
          suppressions = Hashtbl.create 16;
          ws_fun = false;
        }
      in
      let w = new walker Lint_rules.all ctx add in
      w#structure str;
      Lint_rules.audit_suppressions ctx add)
    parsed;
  let findings =
    (* the R7 sub-scan and the walker can meet the same node twice
       (e.g. a [@lint.hot] closure inside another hot scope); identical
       findings collapse *)
    List.sort_uniq
      (fun (a : Lint_rules.finding) (b : Lint_rules.finding) ->
        match String.compare a.file b.file with
        | 0 -> (
            match Int.compare a.line b.line with
            | 0 -> (
                match Int.compare a.col b.col with
                | 0 -> (
                    match String.compare a.rule_id b.rule_id with
                    | 0 -> String.compare a.msg b.msg
                    | c -> c)
                | c -> c)
            | c -> c)
        | c -> c)
      !findings
  in
  if !sarif then Lint_sarif.print findings
  else if !json then print_json findings
  else begin
    List.iter print_human findings;
    Printf.printf "debruijn-lint: %d file(s), %d finding(s)\n" (List.length parsed)
      (List.length findings)
  end;
  exit (if findings = [] then 0 else 1)
