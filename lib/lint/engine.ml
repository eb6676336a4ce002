(* AST-level lint pass over OCaml sources, built on compiler-libs.common
   (Parse + Ast_iterator).  Purely syntactic: no typing pass, so the float
   rules use a conservative "float-looking" heuristic (float literals,
   nan/infinity idents, [.]-suffixed arithmetic).

   Rules (ids in [catalogue]):
     float-equal     =, <>, == or != where an operand is syntactically
                     float-valued; use Float.equal / Float.compare, or
                     Float.is_nan / Float.classify_float for nan and
                     infinity tests
     poly-compare    polymorphic compare / Stdlib.compare in lib/; also
                     = / <> where an operand is a nullary constructor
                     literal (e.g. [x <> Neg_inf]) — structural equality
                     on variants silently degrades to polymorphic compare;
                     use the type's [equal] or a pattern match.  (), true,
                     false, [], (::) and None are exempt: their structural
                     comparison is the idiom and never descends into a
                     payload
     banned-ident    Obj.magic anywhere; Random.* outside lib/desim/prng.ml;
                     Printf.printf and the print_* family in lib/ (route
                     output through Telemetry/Fmt)
     raw-exit        exit outside bin/; library and bench code returns a
                     result or raises — only the CLI, which owns the typed
                     exit codes, may end the process
     nan-literal     bare nan / infinity / neg_infinity idents outside the
                     allowlisted modules (Delta, Curve, Diag); use the
                     qualified Float.* constants so intent is explicit
     unsafe-partial  List.hd / List.tl / Option.get in lib/core
     domain-spawn    Domain.spawn outside lib/parallel; all fan-out goes
                     through Parallel.Pool so determinism, nesting and
                     telemetry stay centralized

   Suppression: [@lint.allow "rule"] on an expression, or on a value
   binding / structure item ([@@lint.allow "rule"]), silences that rule in
   the whole subtree.  The payload is a space-separated list of rule ids;
   "all", or no payload, silences every rule. *)

module F = Finding

type zone = Lib | Bin | Bench | Other

let zone_equal a b =
  match (a, b) with
  | Lib, Lib | Bin, Bin | Bench, Bench | Other, Other -> true
  | (Lib | Bin | Bench | Other), _ -> false

type context = {
  file : string;
  zone : zone;
  segments : string list;
  basename : string;
}

let context_of_file file =
  let segments =
    String.split_on_char '/' file |> List.filter (fun s -> s <> "" && s <> ".")
  in
  let zone =
    match segments with
    | "lib" :: _ -> Lib
    | "bin" :: _ -> Bin
    | "bench" :: _ -> Bench
    | _ -> Other
  in
  { file; zone; segments; basename = Filename.basename file }

let catalogue =
  [
    ( "float-equal",
      "=, <>, == or != on a float-looking operand; use Float.equal / \
       Float.compare (or Float.is_nan / Float.classify_float for nan and \
       infinity tests)" );
    ( "poly-compare",
      "polymorphic compare in lib/, or = / <> against a nullary constructor \
       literal; use a typed comparator such as Float.compare, Int.compare or \
       String.compare, a typed equal (e.g. Delta.equal), or a pattern match" );
    ( "banned-ident",
      "Obj.magic anywhere; Random.* outside lib/desim/prng.ml; Printf.printf \
       / print_* in lib/ (use Telemetry or Fmt)" );
    ( "raw-exit",
      "exit outside bin/; library and bench code must return a result or \
       raise so callers keep control of process lifetime (the CLI owns the \
       typed exit codes)" );
    ( "nan-literal",
      "bare nan / infinity / neg_infinity ident outside Delta, Curve and \
       Diag; use the qualified Float.* constants" );
    ( "unsafe-partial",
      "List.hd / List.tl / Option.get in lib/core; match explicitly" );
    ( "domain-spawn",
      "raw Domain.spawn outside lib/parallel; use Parallel.Pool (or \
       Parallel.Default) so chunking, nested-map degradation and the \
       determinism guarantee stay in one place" );
    ("parse-error", "the file does not parse");
    ( "unused-allow",
      "[@lint.allow] attribute that suppresses no finding of this tool; \
       remove it (reported only with --warn-unused-allow)" );
  ]

let binds_name name (vb : Parsetree.value_binding) =
  let hit = ref false in
  let rec go (p : Parsetree.pattern) =
    match p.ppat_desc with
    | Ppat_var { txt; _ } -> if String.equal txt name then hit := true
    | Ppat_alias (q, { txt; _ }) ->
      if String.equal txt name then hit := true;
      go q
    | Ppat_tuple ps -> List.iter go ps
    | Ppat_constraint (q, _) -> go q
    | _ -> ()
  in
  go vb.pvb_pat;
  !hit

(* ---------------- syntactic float heuristic ---------------- *)

let float_constant_idents = [ "nan"; "infinity"; "neg_infinity"; "epsilon_float"; "max_float"; "min_float" ]

let float_ops = [ "+."; "-."; "*."; "/."; "**"; "~-." ]

let float_returning_stdlib =
  [ "sqrt"; "exp"; "log"; "log10"; "log1p"; "expm1"; "abs_float"; "float_of_int"; "float_of_string"; "float" ]

let float_returning_float_module =
  [
    "min"; "max"; "abs"; "add"; "sub"; "mul"; "div"; "rem"; "neg"; "of_int";
    "of_string"; "round"; "trunc"; "succ"; "pred"; "floor"; "ceil"; "ldexp";
    "pow"; "sqrt"; "exp"; "log"; "log1p"; "expm1"; "hypot"; "copysign"; "fma";
  ]

let float_module_constants = [ "nan"; "infinity"; "neg_infinity"; "pi"; "epsilon"; "max_float"; "min_float" ]

let rec float_like (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_constant (Pconst_float _) -> true
  | Pexp_ident { txt = Lident id; _ } -> List.mem id float_constant_idents
  | Pexp_ident { txt = Ldot (Lident "Float", id); _ } ->
    List.mem id float_module_constants
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) -> (
    match txt with
    | Lident op when List.mem op float_ops -> true
    | Ldot (Lident "Stdlib", op) when List.mem op float_ops -> true
    | Lident f when List.mem f float_returning_stdlib -> true
    | Ldot (Lident "Float", f) -> List.mem f float_returning_float_module
    | _ -> false)
  | Pexp_constraint (inner, _) -> float_like inner
  | _ -> false

let eq_ops = [ "="; "<>"; "=="; "!=" ]

(* Nullary constructor literal as a comparison operand, e.g. [Neg_inf] or
   [Delta.Neg_inf].  The built-in structural constructors — unit, booleans,
   list constructors, [None] — are exempt: comparing against them is the
   idiom and never descends into a constructor payload. *)
let exempt_constructors = [ "()"; "true"; "false"; "[]"; "::"; "None" ]

let nullary_constructor (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_construct ({ txt = Lident name | Ldot (_, name); _ }, None) ->
    if List.mem name exempt_constructors then None else Some name
  | _ -> None

(* ---------------- the checker ---------------- *)

let check_structure ?(warn_unused_allow = false) ctx (str : Parsetree.structure)
    : F.t list =
  let findings = ref [] in
  let allow = Allow.make () in
  let report ~(loc : Location.t) rule message =
    if not (Allow.allowed allow rule) then begin
      let pos = loc.Location.loc_start in
      findings :=
        F.v ~file:ctx.file ~line:pos.Lexing.pos_lnum
          ~col:(pos.Lexing.pos_cnum - pos.Lexing.pos_bol)
          ~rule message
        :: !findings
    end
  in
  (* An unqualified [compare] in a file that defines its own top-level
     [compare] refers to the local (typed) one: not a finding. *)
  let local_compare =
    List.exists
      (fun (item : Parsetree.structure_item) ->
        match item.pstr_desc with
        | Pstr_value (_, vbs) -> List.exists (binds_name "compare") vbs
        | _ -> false)
      str
  in
  let in_lib_core =
    match ctx.segments with "lib" :: "core" :: _ -> true | _ -> false
  in
  let is_prng =
    match ctx.segments with
    | [ "lib"; "desim"; "prng.ml" ] -> true
    | _ -> String.equal ctx.basename "prng.ml"
  in
  let nan_allowlisted =
    List.mem ctx.basename [ "delta.ml"; "curve.ml"; "diag.ml" ]
  in
  let in_lib_parallel =
    match ctx.segments with "lib" :: "parallel" :: _ -> true | _ -> false
  in
  let check_ident ~loc (txt : Longident.t) =
    (match txt with
    | Ldot (Lident "Obj", "magic") ->
      report ~loc "banned-ident" "Obj.magic defeats the type system"
    | Ldot (Lident "Random", _) | Ldot (Ldot (Lident "Random", _), _) ->
      if not is_prng then
        report ~loc "banned-ident"
          "Random.* outside lib/desim/prng.ml; use Desim.Prng for reproducible streams"
    | Lident "exit" | Ldot (Lident "Stdlib", "exit") ->
      if not (zone_equal ctx.zone Bin) then
        report ~loc "raw-exit"
          "exit outside bin/; return a result or raise instead"
    | Lident
        (( "print_endline" | "print_string" | "print_newline" | "print_int"
         | "print_float" | "print_char" ) as id)
      when zone_equal ctx.zone Lib ->
      report ~loc "banned-ident"
        (Printf.sprintf "%s in lib/; route output through Telemetry or Fmt" id)
    | Ldot (Lident "Printf", (("printf" | "eprintf") as id)) when zone_equal ctx.zone Lib ->
      report ~loc "banned-ident"
        (Printf.sprintf "Printf.%s in lib/; route output through Telemetry or Fmt" id)
    | _ -> ());
    (match txt with
    | Ldot (Lident "Domain", "spawn")
    | Ldot (Ldot (Lident "Stdlib", "Domain"), "spawn") ->
      if not in_lib_parallel then
        report ~loc "domain-spawn"
          "raw Domain.spawn outside lib/parallel; use Parallel.Pool so fan-out stays deterministic"
    | _ -> ());
    (match txt with
    | Lident "compare" when zone_equal ctx.zone Lib && not local_compare ->
      report ~loc "poly-compare"
        "polymorphic compare; use a typed comparator (Float.compare, Int.compare, String.compare, ...)"
    | Ldot (Lident "Stdlib", "compare") when zone_equal ctx.zone Lib ->
      report ~loc "poly-compare"
        "polymorphic Stdlib.compare; use a typed comparator (Float.compare, Int.compare, String.compare, ...)"
    | _ -> ());
    (match txt with
    | Lident (("nan" | "infinity" | "neg_infinity") as id) when not nan_allowlisted ->
      report ~loc "nan-literal"
        (Printf.sprintf
           "bare %s; use Float.%s (or a Delta / Curve constructor) so the sentinel is explicit"
           id id)
    | _ -> ());
    match txt with
    | (Ldot (Lident "List", (("hd" | "tl") as id)) | Ldot (Lident "Option", ("get" as id)))
      when in_lib_core ->
      let m = match txt with Ldot (Lident m, _) -> m | _ -> "" in
      report ~loc "unsafe-partial"
        (Printf.sprintf "partial %s.%s in lib/core; match explicitly" m id)
    | _ -> ()
  in
  let check_expr (e : Parsetree.expression) =
    match e.pexp_desc with
    | Pexp_ident { txt; loc } -> check_ident ~loc txt
    | Pexp_apply
        ( { pexp_desc = Pexp_ident { txt = Lident op | Ldot (Lident "Stdlib", op); loc }; _ },
          [ (Nolabel, a); (Nolabel, b) ] )
      when List.mem op eq_ops ->
      if float_like a || float_like b then
        report ~loc "float-equal"
          (Printf.sprintf
             "float (%s) comparison; use Float.equal / Float.compare (or Float.is_nan / Float.classify_float)"
             op);
      (match ctx.zone with
      | Lib when String.equal op "=" || String.equal op "<>" -> (
        match (nullary_constructor a, nullary_constructor b) with
        | Some name, _ | _, Some name ->
          report ~loc "poly-compare"
            (Printf.sprintf
               "polymorphic (%s) against constructor %s; use the type's equal (e.g. Delta.equal) or a pattern match"
               op name)
        | None, None -> ())
      | _ -> ())
    | _ -> ()
  in
  let with_allows attrs f = Allow.with_frames allow attrs f in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          with_allows e.pexp_attributes (fun () ->
              check_expr e;
              Ast_iterator.default_iterator.expr it e));
      value_binding =
        (fun it vb ->
          with_allows vb.pvb_attributes (fun () ->
              Ast_iterator.default_iterator.value_binding it vb));
      structure_item =
        (fun it si ->
          let attrs =
            match si.pstr_desc with Pstr_eval (_, attrs) -> attrs | _ -> []
          in
          with_allows attrs (fun () ->
              Ast_iterator.default_iterator.structure_item it si));
    }
  in
  it.structure it str;
  if warn_unused_allow then begin
    let known = List.map fst catalogue in
    Allow.unused ~warn_all:true ~known allow
    |> List.iter (fun ((loc : Location.t), stale) ->
           let pos = loc.Location.loc_start in
           findings :=
             F.v ~file:ctx.file ~line:pos.Lexing.pos_lnum
               ~col:(pos.Lexing.pos_cnum - pos.Lexing.pos_bol)
               ~rule:"unused-allow"
               (Printf.sprintf
                  "[@lint.allow] suppresses nothing here (stale: %s); remove it"
                  (String.concat ", " stale))
             :: !findings)
  end;
  List.sort_uniq F.compare !findings

(* ---------------- entry points ---------------- *)

let parse_string ~file src =
  let lexbuf = Lexing.from_string src in
  Location.init lexbuf file;
  Parse.implementation lexbuf

let lint_string ?warn_unused_allow ~file src =
  let ctx = context_of_file file in
  match parse_string ~file src with
  | str -> check_structure ?warn_unused_allow ctx str
  | exception exn ->
    let line =
      match exn with
      | Syntaxerr.Error e ->
        (Syntaxerr.location_of_error e).Location.loc_start.Lexing.pos_lnum
      | _ -> 1
    in
    let msg =
      match exn with
      | Syntaxerr.Error _ -> "syntax error"
      | _ -> Printexc.to_string exn
    in
    [ F.v ~file ~line ~col:0 ~rule:"parse-error" msg ]

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let lint_file ?warn_unused_allow path =
  lint_string ?warn_unused_allow ~file:path (read_file path)
