(* Project model for the R3 reachability analysis: which compilation
   unit does a file belong to, and which units are reachable from the
   [Domain.]-using ones?

   Units are read from the dune files under the scanned roots:
   [(library (name ...) (libraries ...))] and
   [(executable/executables (name/names ...) (libraries ...))] stanzas.
   A unit's members are every .ml in its directory (nobody in this repo
   uses [(modules ...)] partitioning except bench, whose modules all
   belong to the single executable anyway).

   Reachability goes in the calling direction: code spawned by
   [Domain.spawn] in unit U can execute anything U depends on, so the
   R3 scope is the dependency closure of the units that mention
   [Domain.] or call [Util.Trials.run] (which runs its caller's trials
   on spawned domains) — plus, for robustness when dune context is
   missing (lint fixtures, ad-hoc files), any single such file. *)

type unit_info = {
  uname : string;  (* library name, or "exe:<dir>" for executables *)
  udir : string;  (* directory holding the dune file, '/'-normalized *)
  deps : string list;  (* values of (libraries ...), internal or not *)
}

type t = {
  units : unit_info list;
  mutable domain_units : string list;  (* units referencing Domain. *)
}

let normalize path =
  let path = if String.length path > 2 && String.sub path 0 2 = "./" then String.sub path 2 (String.length path - 2) else path in
  String.concat "/" (String.split_on_char '\\' path)

(* ---- project-root-relative path matching --------------------------- *)

(* Allowlists name files relative to the project root, but the lint
   roots may be absolute, ./-prefixed, or handed in from a parent
   directory (a dune sandbox root, `debruijn-lint ../lib`).  So a
   root-relative entry matches a scanned path when it is the whole path
   or a suffix starting at a '/' segment boundary. *)
let same_path rel path =
  let rel = normalize rel and path = normalize path in
  rel = path
  ||
  let lr = String.length rel and lp = String.length path in
  lp > lr + 1 && String.sub path (lp - lr) lr = rel && path.[lp - lr - 1] = '/'

(* [under_dir "lib" path]: is [path] inside a root-relative directory,
   wherever the root sits in the absolute path? *)
let under_dir dir path =
  let path = normalize path in
  let prefix = dir ^ "/" in
  let lpre = String.length prefix and lp = String.length path in
  (lp > lpre && String.sub path 0 lpre = prefix)
  ||
  let probe = "/" ^ prefix in
  let lpr = String.length probe in
  let rec scan i =
    i + lpr <= lp && (String.sub path i lpr = probe || scan (i + 1))
  in
  scan 0

(* ---- dune-file mining ---------------------------------------------- *)

let field name = function
  | Lint_sexp.List (Lint_sexp.Atom a :: rest) when a = name -> Some rest
  | _ -> None

let atoms l =
  List.filter_map (function Lint_sexp.Atom a -> Some a | _ -> None) l

let find_field name items = List.find_map (field name) items

let units_of_dune ~dir sexps =
  List.filter_map
    (function
      | Lint_sexp.List (Lint_sexp.Atom kind :: body)
        when kind = "library" || kind = "executable" || kind = "executables" ->
          let deps =
            match find_field "libraries" body with Some l -> atoms l | None -> []
          in
          let name =
            if kind = "library" then
              match find_field "name" body with
              | Some [ Lint_sexp.Atom n ] -> Some n
              | _ -> None
            else Some ("exe:" ^ dir)
          in
          Option.map (fun uname -> { uname; udir = dir; deps }) name
      | _ -> None)
    sexps

let rec scan_dir acc dir =
  let entries = try Sys.readdir dir with Sys_error _ -> [||] in
  Array.fold_left
    (fun acc entry ->
      let path = Filename.concat dir entry in
      if Sys.is_directory path then scan_dir acc path
      else if entry = "dune" then
        match Lint_sexp.parse_file path with
        | sexps -> units_of_dune ~dir:(normalize dir) sexps @ acc
        | exception Lint_sexp.Error _ -> acc
      else acc)
    acc entries

let scan roots =
  let units =
    List.fold_left
      (fun acc root -> if Sys.is_directory root then scan_dir acc root else acc)
      [] roots
  in
  { units; domain_units = [] }

(* ---- membership and reachability ----------------------------------- *)

let unit_of_file t path =
  let path = normalize path in
  let dir = Filename.dirname path in
  (* the unit whose directory is the longest prefix of [dir] *)
  List.fold_left
    (fun best u ->
      let matches = dir = u.udir || String.length dir > String.length u.udir && String.sub dir 0 (String.length u.udir + 1) = u.udir ^ "/" in
      match (matches, best) with
      | false, _ -> best
      | true, Some b when String.length b.udir >= String.length u.udir -> best
      | true, _ -> Some u)
    None t.units

let mark_domain_user t path =
  match unit_of_file t path with
  | Some u when not (List.mem u.uname t.domain_units) ->
      t.domain_units <- u.uname :: t.domain_units
  | _ -> ()

(* Dependency closure of the Domain-using units, over internal units
   only (external libraries like [unix] have no entry in [t.units]). *)
let domain_reachable_units t =
  let rec close seen = function
    | [] -> seen
    | u :: rest when List.mem u seen -> close seen rest
    | u :: rest ->
        let deps =
          match List.find_opt (fun i -> i.uname = u) t.units with
          | Some i -> i.deps
          | None -> []
        in
        close (u :: seen) (deps @ rest)
  in
  close [] t.domain_units

let in_domain_scope t path =
  match unit_of_file t path with
  | Some u -> List.mem u.uname (domain_reachable_units t)
  | None -> false
