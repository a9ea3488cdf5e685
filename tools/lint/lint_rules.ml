(* The rule registry: each project invariant is a [rule] with hooks the
   AST walker calls at every expression / structure item.  Rules are
   purely syntactic (no type information), so each one errs on the side
   of flagging and offers an escape hatch:

   - any finding can be silenced with [@lint.allow "Rn reason"] (on the
     expression), [@@lint.allow "Rn reason"] (on the enclosing binding /
     item) or [@@@lint.allow "Rn reason"] (rest of the module), where
     the first token of the payload is a comma-separated rule-id list;
   - R3 additionally accepts the dedicated [@@lint.domain_safe "why"],
     whose reason string is mandatory.

   Every suppression is registered in the per-file [file_ctx] and must
   silence at least one live finding per listed rule id, or the R8
   audit reports the attribute itself (see the driver).

   See DESIGN.md "Enforced invariants" for each rule's rationale. *)

open Ppxlib

type finding = {
  rule_id : string;
  file : string;
  line : int;
  col : int;
  msg : string;
}

(* One suppression attribute: which rule ids it may silence, and which
   of them it actually silenced ([sfired]) — the R8 audit's input.
   Malformed attributes ([swellformed] = false) silence nothing; their
   own finding is emitted once, at registration. *)
type suppression = {
  skind : string;  (* "lint.allow" | "lint.domain_safe" *)
  sloc : Location.t;
  sids : string list;
  swellformed : bool;
  mutable sfired : string list;
}

type file_ctx = {
  path : string;  (* normalized, relative to the lint root *)
  in_lib : bool;
  domain_scope : bool;  (* file is in R3's reachability scope *)
  mutable_labels : (string, unit) Hashtbl.t;
      (* record labels declared [mutable] anywhere in this file *)
  aliases : (string, string) Hashtbl.t;
      (* module aliases in this file: [module Fa = Graphlib.Flatarr]
         maps "Fa" -> "Flatarr", so R7 resolves aliased calls the way
         R1-R3 resolve qualified paths *)
  suppressions : (int, suppression) Hashtbl.t;
      (* every lint suppression attribute seen in this file, keyed by
         its start offset (unique per attribute) *)
  mutable ws_fun : bool;  (* inside a function taking ?ws (R4 scope) *)
}

type emit = id:string -> loc:Location.t -> string -> unit

type rule = {
  id : string;
  summary : string;
  on_expr : emit -> file_ctx -> expression -> unit;
  on_str_item : emit -> file_ctx -> structure_item -> unit;
}

let no_expr (_ : emit) (_ : file_ctx) (_ : expression) = ()
let no_str_item (_ : emit) (_ : file_ctx) (_ : structure_item) = ()

(* Longident components, [Lapply]-safe: [Stdlib.Random.int] ->
   ["Stdlib"; "Random"; "int"]. *)
let rec flat = function
  | Lident s -> [ s ]
  | Ldot (l, s) -> flat l @ [ s ]
  | Lapply (l, _) -> flat l

let last_exn comps = List.nth comps (List.length comps - 1)
let dotted comps = String.concat "." comps

(* ---- suppression attributes ---------------------------------------- *)

let payload_string (a : attribute) =
  match a.attr_payload with
  | PStr
      [
        {
          pstr_desc =
            Pstr_eval ({ pexp_desc = Pexp_constant (Pconst_string (s, _, _)); _ }, _);
          _;
        };
      ] ->
      Some s
  | _ -> None

let fire s id = if not (List.mem id s.sfired) then s.sfired <- id :: s.sfired

(* Parse-and-register one attribute.  Returns [None] for non-lint
   attributes.  The walker and the R7 sub-scan may both visit the
   same attribute; the registry keeps one record per source location,
   so a malformed attribute is reported exactly once. *)
let suppression_of_attr (emit : emit) ctx (a : attribute) : suppression option =
  let kind = a.attr_name.txt in
  if kind <> "lint.allow" && kind <> "lint.domain_safe" then None
  else
    let key = a.attr_loc.loc_start.pos_cnum in
    match Hashtbl.find_opt ctx.suppressions key with
    | Some s -> Some s
    | None ->
        let register sids swellformed =
          let s = { skind = kind; sloc = a.attr_loc; sids; swellformed; sfired = [] } in
          Hashtbl.replace ctx.suppressions key s;
          Some s
        in
        let reason =
          match payload_string a with Some s -> String.trim s | None -> ""
        in
        (match kind with
        | "lint.allow" ->
            if reason <> "" then
              register
                (String.split_on_char ',' (List.hd (String.split_on_char ' ' reason)))
                true
            else begin
              emit ~id:"R0" ~loc:a.attr_loc
                "[@lint.allow] needs a payload: \"R1\" or \"R1,R2 reason...\"";
              register [] false
            end
        | _ (* lint.domain_safe *) ->
            if reason <> "" then register [ "R3" ] true
            else begin
              emit ~id:"R3" ~loc:a.attr_loc
                "[@lint.domain_safe] requires a non-empty reason string";
              register [] false
            end)

let has_attr name attrs =
  List.exists (fun (a : attribute) -> a.attr_name.txt = name) attrs

(* ------------------------------------------------------------------ *)
(* R1 — determinism: no ambient randomness or wall clock.  Seeded
   campaigns (Util.Rng substreams) are the only randomness source and
   bench/jrec.ml the only timing wrapper, so every reported statistic
   is reproducible (PR 1's bit-identical [?domains] contract). *)

let r1_allowed_files = [ "lib/util/rng.ml"; "bench/jrec.ml" ]
let path_allowed files path = List.exists (fun f -> Lint_project.same_path f path) files

let r1_banned comps =
  if List.mem "Random" comps then
    Some (Printf.sprintf "%s: ambient PRNG breaks seeded reproducibility; use Util.Rng" (dotted comps))
  else
    match comps with
    | [ "Unix"; ("gettimeofday" | "time") ] ->
        Some
          (Printf.sprintf
             "%s: wall clock outside bench/jrec.ml makes runs non-reproducible" (dotted comps))
    | _ -> None

let r1 =
  {
    id = "R1";
    summary = "no Stdlib.Random / Unix.gettimeofday outside Util.Rng and bench/jrec.ml";
    on_expr =
      (fun emit ctx e ->
        if not (path_allowed r1_allowed_files ctx.path) then
          match e.pexp_desc with
          | Pexp_ident { txt; loc } -> (
              match r1_banned (flat txt) with
              | Some msg -> emit ~id:"R1" ~loc msg
              | None -> ())
          | _ -> ());
    on_str_item =
      (fun emit ctx it ->
        if not (path_allowed r1_allowed_files ctx.path) then
          let check_mod (m : module_expr) =
            match m.pmod_desc with
            | Pmod_ident { txt; loc } when List.mem "Random" (flat txt) ->
                emit ~id:"R1" ~loc
                  (Printf.sprintf "aliasing/opening %s smuggles the ambient PRNG in" (dotted (flat txt)))
            | _ -> ()
          in
          match it.pstr_desc with
          | Pstr_module mb -> check_mod mb.pmb_expr
          | Pstr_open od -> check_mod od.popen_expr
          | _ -> ());
  }

(* ------------------------------------------------------------------ *)
(* R2 — no polymorphic compare / hash on structured values.  PR 1's
   inbox-sort bug: polymorphic [compare] over [(src, payload)] pairs
   raised on closure payloads and ordered records by declaration
   accident.  Syntactic approximation: ban the bare [compare] /
   [Hashtbl.hash] identifiers everywhere, and [=] / [<>] whenever one
   operand is syntactically structured (list, option, tuple, record,
   array, string/float constant, constructor with arguments). *)

let rec structured e =
  match e.pexp_desc with
  | Pexp_constraint (e, _) -> structured e
  | Pexp_construct ({ txt = Lident ("::" | "[]" | "None" | "Some"); _ }, _) -> true
  | Pexp_construct (_, Some _) -> true
  | Pexp_tuple _ | Pexp_record _ | Pexp_array _ | Pexp_lazy _ -> true
  | Pexp_constant (Pconst_string _ | Pconst_float _) -> true
  | Pexp_variant (_, Some _) -> true
  | _ -> false

let r2 =
  {
    id = "R2";
    summary = "no polymorphic =/compare/Hashtbl.hash on structured values";
    on_expr =
      (fun emit _ e ->
        match e.pexp_desc with
        | Pexp_apply
            ( { pexp_desc = Pexp_ident { txt = Lident (("=" | "<>") as op); loc }; _ },
              [ (_, a); (_, b) ] )
          when structured a || structured b ->
            emit ~id:"R2" ~loc
              (Printf.sprintf
                 "polymorphic (%s) on a structured value; pattern-match or use a typed \
                  equality" op)
        | Pexp_ident { txt; loc } -> (
            match flat txt with
            | [ "compare" ] | [ "Stdlib"; "compare" ] ->
                emit ~id:"R2" ~loc
                  "bare polymorphic compare; use a typed comparator (Int.compare, ...)"
            | [ "Hashtbl"; "hash" ] | [ "Stdlib"; "Hashtbl"; "hash" ] ->
                emit ~id:"R2" ~loc "polymorphic Hashtbl.hash; use a typed hash function"
            | _ -> ())
        | _ -> ());
    on_str_item = no_str_item;
  }

(* ------------------------------------------------------------------ *)
(* R3 — no mutable toplevel state in code reachable from the units
   that spawn domains (Util.Trials, the callers of its [run] —
   Ffc.Campaign, Dhc.Campaign — and the bench executable): shared
   toplevel cells race under [Domain.spawn], and toplevel [lazy]
   forcing raises across domains.  Annotate genuinely safe state with
   [@@lint.domain_safe "why"]. *)

let mutable_modules =
  [ "Hashtbl"; "Queue"; "Stack"; "Buffer"; "Bytes"; "Array"; "Weak"; "Dynarray";
    "Atomic"; "Flatarr" ]

let mutable_makers =
  [ "create"; "make"; "init"; "of_list"; "of_seq"; "of_array"; "make_matrix"; "copy";
    "append"; "concat"; "sub" ]

let rec r3_init_shape ctx e =
  match e.pexp_desc with
  | Pexp_constraint (e, _) | Pexp_coerce (e, _, _) | Pexp_open (_, e) -> r3_init_shape ctx e
  | Pexp_lazy _ -> Some "a toplevel lazy (concurrent Lazy.force raises across domains)"
  | Pexp_array _ -> Some "a toplevel array literal"
  | Pexp_record (fields, _)
    when List.exists
           (fun (({ txt; _ } : longident_loc), _) ->
             Hashtbl.mem ctx.mutable_labels (last_exn (flat txt)))
           fields ->
      Some "a record with mutable fields"
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) -> (
      match flat txt with
      | [ "ref" ] | [ "Stdlib"; "ref" ] -> Some "a ref cell"
      | comps -> (
          (* Strip one qualifying prefix so [Stdlib.Atomic.make],
             [Graphlib.Flatarr.create] and the bare aliases all land on
             the same module-path + maker shape. *)
          let comps =
            match comps with ("Stdlib" | "Graphlib") :: rest -> rest | _ -> comps
          in
          match comps with
          | [ m; f ] when List.mem m mutable_modules && List.mem f mutable_makers ->
              Some (Printf.sprintf "a mutable %s.%s" m f)
          | [ "Flatarr"; (("Byte" | "I32" | "Arena") as sub); f ]
            when List.mem f mutable_makers ->
              Some (Printf.sprintf "an off-heap Flatarr.%s.%s" sub f)
          | [ "Bigarray"; "Array1"; f ] when List.mem f mutable_makers ->
              Some (Printf.sprintf "a mutable Bigarray.Array1.%s" f)
          | _ -> None))
  | _ -> None

let r3 =
  {
    id = "R3";
    summary = "no mutable toplevel state in Domain-reachable code (annotate with [@@lint.domain_safe])";
    on_expr = no_expr;
    on_str_item =
      (fun emit ctx it ->
        if ctx.domain_scope then
          match it.pstr_desc with
          | Pstr_value (_, vbs) ->
              List.iter
                (fun vb ->
                  match r3_init_shape ctx vb.pvb_expr with
                  | Some what ->
                      emit ~id:"R3" ~loc:vb.pvb_loc
                        (Printf.sprintf
                           "toplevel binding holds %s, shared under Domain.spawn; hoist it \
                            into the runtime state or annotate [@@lint.domain_safe \
                            \"why\"]" what)
                  | None -> ())
                vbs
          | _ -> ());
  }

(* ------------------------------------------------------------------ *)
(* R4 — arena confinement (DESIGN.md §5): [Ffc.Workspace] internals are
   private to the pipeline stages, and a function taking [?ws] may
   thread the arena along or project its fields, but must not package
   the handle itself into returned/stored data (that silently extends
   arena lifetime past the aliasing contract).  The Bigarray backings
   have the same lifetime discipline: [Flatarr.Arena.carve],
   [carve_byte] and [carve_i32] hand out aliasing views, so carving is
   confined to the workspace constructor (and Flatarr itself). *)

let r4_arena_file path = Lint_project.under_dir "lib/ffc" path

let r4_carve_files = [ "lib/ffc/workspace.ml"; "lib/graphlib/flatarr.ml" ]

(* Alias-robust: matches [Flatarr.Arena.carve], [Fa.Arena.carve_byte],
   [Graphlib.Flatarr.Arena.carve_i32], ... *)
let r4_carve_access comps =
  match List.rev comps with
  | (("carve" | "carve_byte" | "carve_i32") as f) :: "Arena" :: _ -> Some f
  | _ -> None

let r4_public_workspace_values = [ "create"; "check" ]

let r4_workspace_access comps =
  match List.rev comps with
  | value :: "Workspace" :: _ when not (List.mem value r4_public_workspace_values) -> Some value
  | _ -> None

let rec is_ws_ident e =
  match e.pexp_desc with
  | Pexp_constraint (e, _) -> is_ws_ident e
  | Pexp_ident { txt = Lident "ws"; _ } -> true
  | _ -> false

let has_optional_ws_param params =
  List.exists
    (fun p ->
      match p.pparam_desc with
      | Pparam_val (Optional "ws", _, _) -> true
      | _ -> false)
    params

(* Packaging shapes: the arena handle appearing as a component of a
   tuple / record / constructor argument / array literal. *)
let r4_packaging e =
  match e.pexp_desc with
  | Pexp_tuple parts | Pexp_array parts -> List.exists is_ws_ident parts
  | Pexp_record (fields, _) -> List.exists (fun (_, v) -> is_ws_ident v) fields
  | Pexp_construct (_, Some arg) | Pexp_variant (_, Some arg) -> (
      is_ws_ident arg
      || match arg.pexp_desc with Pexp_tuple parts -> List.exists is_ws_ident parts | _ -> false)
  | _ -> false

let r4 =
  {
    id = "R4";
    summary =
      "arena confinement: Workspace internals and Arena carving stay in the pipeline; ?ws \
       never escapes into data";
    on_expr =
      (fun emit ctx e ->
        (if not (path_allowed r4_carve_files ctx.path) then
           match e.pexp_desc with
           | Pexp_ident { txt; loc } -> (
               match r4_carve_access (flat txt) with
               | Some f ->
                   emit ~id:"R4" ~loc
                     (Printf.sprintf
                        "Arena.%s: carving hands out aliasing views; arenas are carved only \
                         by the Workspace constructor" f)
               | None -> ())
           | _ -> ());
        if not (r4_arena_file ctx.path) then
          match e.pexp_desc with
          | Pexp_ident { txt; loc } | Pexp_field (_, { txt; loc }) -> (
              match r4_workspace_access (flat txt) with
              | Some value ->
                  emit ~id:"R4" ~loc
                    (Printf.sprintf
                       "Workspace.%s: arena internals are private to the FFC pipeline; \
                        consume results through the documented record fields" value)
              | None -> ())
          | _ when ctx.ws_fun && r4_packaging e ->
              (* The walker flips [ws_fun] inside any function taking
                 [?ws]; packaging the handle anywhere in that scope is
                 the escape R4 exists to stop. *)
              emit ~id:"R4" ~loc:e.pexp_loc
                "the ?ws arena handle escapes into a data structure; pass it as an \
                 argument or project the documented fields instead"
          | _ -> ());
    on_str_item = no_str_item;
  }

(* ------------------------------------------------------------------ *)
(* R5 — no unsafe casts anywhere; no Printf in libraries (Fmt/Logs
   only, so output is composable and silenceable). *)

let r5 =
  {
    id = "R5";
    summary = "no Obj.magic/%identity; no Printf in lib/";
    on_expr =
      (fun emit ctx e ->
        match e.pexp_desc with
        | Pexp_ident { txt; loc } -> (
            match flat txt with
            | "Obj" :: _ :: _ | "Stdlib" :: "Obj" :: _ ->
                emit ~id:"R5" ~loc (Printf.sprintf "%s: Obj breaks type safety" (dotted (flat txt)))
            | ("Printf" :: _ :: _ | "Stdlib" :: "Printf" :: _) when ctx.in_lib ->
                emit ~id:"R5" ~loc
                  (Printf.sprintf "%s in a library; use Fmt (or Logs) instead" (dotted (flat txt)))
            | _ -> ())
        | _ -> ());
    on_str_item =
      (fun emit _ctx it ->
        match it.pstr_desc with
        | Pstr_primitive vd when List.exists (fun p -> p = "%identity") vd.pval_prim ->
            emit ~id:"R5" ~loc:vd.pval_loc "external %identity is an unchecked cast"
        | _ -> ());
  }

(* ------------------------------------------------------------------ *)
(* R7 — zero-allocation hot paths: the scope under a [@lint.hot] /
   [@@lint.hot] annotation (the Fastpath column loop, the code-table
   pass of Compile.lower, Live event patching, the ring walk) must
   contain no allocation construct.  The check is
   intraprocedural and syntactic — a portable, project-level analogue
   of flambda's [@zero_alloc]: closures, tuples, records, boxed
   constructors, list cells, [ref], (@)/(^), and the Stdlib/Flatarr
   allocator entry points are flagged; calls to other functions are
   trusted (annotate them too if they are hot).  Every deliberate
   allocation carries its own [@lint.allow "R7 why"]. *)

let r7_alloc_mods = [ "Printf"; "Format"; "Fmt"; "Scanf"; "Seq" ]

let r7_alloc_table =
  [
    ( "Array",
      [ "make"; "init"; "append"; "concat"; "copy"; "sub"; "of_list"; "to_list";
        "of_seq"; "to_seq"; "to_seqi"; "map"; "mapi"; "map2"; "split"; "combine";
        "make_matrix"; "sort"; "stable_sort"; "fast_sort" ] );
    ( "List",
      [ "init"; "map"; "mapi"; "map2"; "rev"; "rev_append"; "rev_map"; "append";
        "concat"; "concat_map"; "flatten"; "filter"; "filteri"; "filter_map";
        "partition"; "split"; "combine"; "cons"; "sort"; "stable_sort";
        "fast_sort"; "sort_uniq"; "merge"; "of_seq"; "to_seq" ] );
    ( "Bytes",
      [ "create"; "make"; "init"; "copy"; "of_string"; "to_string"; "sub";
        "sub_string"; "extend"; "cat"; "concat" ] );
    ( "String",
      [ "make"; "init"; "sub"; "concat"; "cat"; "map"; "mapi"; "split_on_char";
        "of_bytes"; "to_bytes"; "trim"; "escaped" ] );
    ("Buffer", [ "create"; "contents"; "to_bytes"; "sub" ]);
    ("Hashtbl", [ "create"; "copy"; "of_seq" ]);
    ("Queue", [ "create"; "copy"; "of_seq" ]);
    ("Stack", [ "create"; "copy"; "of_seq" ]);
    ("Option", [ "some"; "map"; "bind"; "join"; "to_list"; "to_seq" ]);
    ("Result", [ "ok"; "error"; "map"; "bind" ]);
    ("Flatarr", [ "create"; "make"; "of_array"; "to_array"; "sub_to_array" ]);
    ("Byte", [ "create"; "make"; "to_bool_array" ]);
    ("I32", [ "create"; "make"; "to_array"; "sub_to_array" ]);
    ("Arena", [ "create"; "carve"; "carve_byte"; "carve_i32" ]);
    ("Array1", [ "create"; "of_array"; "sub" ]);
    ("Array2", [ "create"; "of_array" ]);
    ("Atomic", [ "make" ]);
    ("Domain", [ "spawn" ]);
    ("Bitset", [ "create" ]);
  ]

let r7_alloc_call ctx comps =
  match comps with
  | [ "ref" ] | [ "Stdlib"; "ref" ] -> Some "ref cell allocation"
  | [ "@" ] -> Some "(@) copies its first list"
  | [ "^" ] -> Some "(^) allocates a fresh string"
  | _ -> (
      match List.rev comps with
      | f :: m :: _ ->
          (* Resolve a file-local module alias ([module Fa = Flatarr])
             to its target's final component, so aliased allocator
             calls are caught like qualified ones. *)
          let m =
            match Hashtbl.find_opt ctx.aliases m with Some c -> c | None -> m
          in
          if List.mem m r7_alloc_mods then
            Some (Printf.sprintf "%s.%s builds closures and intermediate strings" m f)
          else (
            match List.assoc_opt m r7_alloc_table with
            | Some fns when List.mem f fns -> Some (Printf.sprintf "%s.%s allocates" m f)
            | _ -> None)
      | _ -> None)

let scan_hot (emit : emit) ctx (scope : expression) =
  let scan =
    object (self)
      inherit Ast_traverse.iter as super
      val mutable frames : suppression list = []

      method private report ~loc what =
        match List.find_opt (fun s -> List.mem "R7" s.sids) frames with
        | Some s -> fire s "R7"
        | None ->
            emit ~id:"R7" ~loc
              (Printf.sprintf
                 "%s inside a [@lint.hot] scope; hoist it out of the hot path or \
                  annotate [@lint.allow \"R7 why\"]" what)

      method private push_attrs attrs =
        let fs =
          List.filter_map
            (fun a ->
              match suppression_of_attr emit ctx a with
              | Some s when s.swellformed -> Some s
              | _ -> None)
            attrs
        in
        frames <- fs @ frames;
        List.length fs

      method private pop n =
        for _ = 1 to n do
          frames <- List.tl frames
        done

      method! expression e =
        let n = self#push_attrs e.pexp_attributes in
        (match e.pexp_desc with
        | Pexp_function _ ->
            self#report ~loc:e.pexp_loc "closure creation";
            super#expression e
        | Pexp_construct
            ({ txt = Lident "::"; _ }, Some { pexp_desc = Pexp_tuple [ hd; tl ]; _ })
          ->
            (* one finding per cons cell, not a second one for its
               ghost argument tuple *)
            self#report ~loc:e.pexp_loc "list cons";
            self#expression hd;
            self#expression tl
        | Pexp_construct (_, Some _) ->
            self#report ~loc:e.pexp_loc "constructor application (boxed)";
            super#expression e
        | Pexp_variant (_, Some _) ->
            self#report ~loc:e.pexp_loc "polymorphic-variant payload (boxed)";
            super#expression e
        | Pexp_tuple _ ->
            self#report ~loc:e.pexp_loc "tuple construction";
            super#expression e
        | Pexp_record _ ->
            self#report ~loc:e.pexp_loc "record construction";
            super#expression e
        | Pexp_array _ ->
            self#report ~loc:e.pexp_loc "array literal";
            super#expression e
        | Pexp_lazy _ ->
            self#report ~loc:e.pexp_loc "lazy suspension";
            super#expression e
        | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) ->
            (match r7_alloc_call ctx (flat txt) with
            | Some what -> self#report ~loc:e.pexp_loc what
            | None -> ());
            super#expression e
        | _ -> super#expression e);
        self#pop n

      method! value_binding vb =
        let n = self#push_attrs vb.pvb_attributes in
        super#value_binding vb;
        self#pop n
    end
  in
  scan#expression scope

(* The hot scope of an annotated value: the body under the (single,
   n-ary) outer abstraction — the parameters themselves are not
   allocation sites. *)
let r7_scope e =
  match e.pexp_desc with
  | Pexp_function (_, _, Pfunction_body b) -> b
  | _ -> e

let r7 =
  {
    id = "R7";
    summary = "[@lint.hot] scopes stay allocation-free (escape: [@lint.allow \"R7 why\"])";
    on_expr =
      (fun emit ctx e ->
        if has_attr "lint.hot" e.pexp_attributes then scan_hot emit ctx (r7_scope e);
        (* [let f ... = ... [@@lint.hot] in ...]: hot annotations on
           function-local bindings, not just toplevel ones *)
        match e.pexp_desc with
        | Pexp_let (_, vbs, _) ->
            List.iter
              (fun vb ->
                if has_attr "lint.hot" vb.pvb_attributes then
                  scan_hot emit ctx (r7_scope vb.pvb_expr))
              vbs
        | _ -> ());
    on_str_item =
      (fun emit ctx it ->
        match it.pstr_desc with
        | Pstr_value (_, vbs) ->
            List.iter
              (fun vb ->
                if has_attr "lint.hot" vb.pvb_attributes then
                  scan_hot emit ctx (r7_scope vb.pvb_expr))
              vbs
        | _ -> ());
  }

(* ------------------------------------------------------------------ *)
(* R8 — suppression audit: every [@lint.allow] / [@@lint.domain_safe]
   must silence at least one live finding for every rule id it lists,
   or the attribute itself is an error.  The walker and the R7 scan
   mark the suppressions they consult ([sfired]); the driver sweeps
   the per-file registry after the walk, so the suppression inventory
   can never rot.  R8 findings carry no escape
   hatch — the fix is deleting or narrowing the attribute. *)

let r8 =
  {
    id = "R8";
    summary =
      "suppression audit: every lint attribute must silence a live finding (no escape \
       hatch)";
    on_expr = no_expr;
    on_str_item = no_str_item;
  }

(* Called by the driver after a file's walk: one finding per rule id a
   well-formed suppression listed but never silenced. *)
let audit_suppressions ctx (add : finding -> unit) =
  Hashtbl.iter
    (fun _ s ->
      if s.swellformed then
        List.iter
          (fun id ->
            if not (List.mem id s.sfired) then
              add
                {
                  rule_id = "R8";
                  file = ctx.path;
                  line = s.sloc.loc_start.pos_lnum;
                  col = s.sloc.loc_start.pos_cnum - s.sloc.loc_start.pos_bol;
                  msg =
                    Printf.sprintf
                      "dead suppression: this [@%s] never silences a live %s finding; \
                       delete the attribute or narrow its rule list" s.skind id;
                })
          (List.sort_uniq String.compare s.sids))
    ctx.suppressions

let all = [ r1; r2; r3; r4; r5; r7; r8 ]
