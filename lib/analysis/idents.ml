(* The per-identifier rules.  Every value path the typed tree names is
   resolved (a module alias such as [module R = Random] is expanded) and
   matched whole against the Stdlib path it denotes; the comparison
   primitives are judged by the type they are instantiated at.

     float-equal     Stdlib =, <>, ==, != or compare at float,
                     abbreviations expanded
     poly-compare    Stdlib =, <> or compare in lib/ at a type that is not
                     immediate (float is float-equal's).  An operand that
                     is a built-in constant constructor ([], None, (),
                     true, false) is exempt; physical == is not structural
                     comparison
     banned-ident    Obj.magic anywhere; Random.* outside prng.ml;
                     Printf.printf / eprintf and print_* in lib/
     raw-exit        exit outside bin/
     nan-literal     bare nan / infinity / neg_infinity outside delta.ml,
                     curve.ml and diag.ml
     unsafe-partial  List.hd / List.tl / Option.get in lib/core
     domain-spawn    Domain.spawn outside lib/parallel

   The zones are read from the unit's source path. *)

open Typedtree

type zone = {
  lib : bool;
  bin : bool;
  core : bool; (* lib/core *)
  parallel : bool; (* lib/parallel *)
  prng : bool; (* the one Random user *)
  sentinels : bool; (* may name the bare IEEE sentinels *)
}

let zone file =
  let segs = String.split_on_char '/' file in
  let rec under dirs segs =
    match (dirs, segs) with
    | [], _ -> true
    | d :: dirs, s :: segs -> String.equal d s && under dirs segs
    | _ :: _, [] -> false
  in
  let base = Filename.basename file in
  {
    lib = under [ "lib" ] segs;
    bin = under [ "bin" ] segs;
    core = under [ "lib"; "core" ] segs;
    parallel = under [ "lib"; "parallel" ] segs;
    prng = String.equal base "prng.ml";
    sentinels = List.exists (String.equal base) [ "delta.ml"; "curve.ml"; "diag.ml" ];
  }

let rec local_root = function
  | Path.Pident id -> not (Ident.global id)
  | Pdot (p, _) | Papply (p, _) | Pextra_ty (p, _) -> local_root p

(* [R.int] under [module R = Random] is Stdlib__Random.int. *)
let resolve (e : expression) p =
  match p with
  | Path.Pdot (m, _) when local_root m -> (
    match Ctx.env_of e with
    | Some env -> ( try Env.normalize_value_path None env p with _ -> p)
    | None -> p)
  | _ -> p

type kind = Float | Immediate | Boxed

let immediates = [ Predef.path_int; Predef.path_char; Predef.path_bool; Predef.path_unit ]

(* What an operand of type [ty] is; the common cases need no
   environment.  Without one, a type stays Immediate: no finding. *)
let kind (e : expression) ty =
  match Types.get_desc ty with
  | Types.Tconstr (p, [], _) when Path.same p Predef.path_float -> Float
  | Types.Tconstr (p, [], _) when List.exists (Path.same p) immediates -> Immediate
  | Types.Tvar _ | Types.Tunivar _ -> Boxed
  | _ -> (
    match Ctx.env_of e with
    | None -> Immediate
    | Some env when Ctx.is_float (Some env) ty -> Float
    | Some env -> (
      match Ctype.immediacy env ty with
      | Type_immediacy.Always | Always_on_64bits -> Immediate
      | Unknown -> Boxed))

let comparison ctx zone ~exempt (e : expression) op =
  match Types.get_desc e.exp_type with
  | Types.Tarrow (_, ty, _, _) -> (
    match kind e ty with
    | Float ->
      Ctx.report ctx ~loc:e.exp_loc ~rule:"float-equal"
        (Printf.sprintf
           "float (%s) comparison; use Float.equal / Float.compare (or \
            Float.is_nan / Float.classify_float)"
           op)
    | Boxed when zone.lib && not exempt -> (
      match op with
      | "compare" ->
        Ctx.report ctx ~loc:e.exp_loc ~rule:"poly-compare"
          "polymorphic compare; use a typed comparator (Float.compare, \
           Int.compare, String.compare, ...)"
      | "=" | "<>" ->
        Ctx.report ctx ~loc:e.exp_loc ~rule:"poly-compare"
          (Format.asprintf
             "polymorphic (%s) at %a; use the type's equal (String.equal, \
              Delta.equal, ...) or a pattern match"
             op Printtyp.type_expr ty)
      | _ -> ())
    | Boxed | Immediate -> ())
  | _ -> ()

let ident ctx zone ~exempt (e : expression) path =
  let report rule msg = Ctx.report ctx ~loc:e.exp_loc ~rule msg in
  match path with
  | [ "Stdlib"; (("=" | "<>" | "==" | "!=" | "compare") as op) ] ->
    comparison ctx zone ~exempt e op
  | [ "Stdlib"; "Obj"; "magic" ] ->
    report "banned-ident" "Obj.magic defeats the type system"
  | "Stdlib" :: "Random" :: _ :: _ when not zone.prng ->
    report "banned-ident"
      "Random.* outside lib/desim/prng.ml; use Desim.Prng for reproducible \
       streams"
  | [
   "Stdlib";
   (( "print_endline" | "print_string" | "print_newline" | "print_int"
    | "print_float" | "print_char" ) as id);
  ]
    when zone.lib ->
    report "banned-ident"
      (Printf.sprintf "%s in lib/; route output through Telemetry or Fmt" id)
  | [ "Stdlib"; "Printf"; (("printf" | "eprintf") as id) ] when zone.lib ->
    report "banned-ident"
      (Printf.sprintf "Printf.%s in lib/; route output through Telemetry or Fmt" id)
  | [ "Stdlib"; "exit" ] when not zone.bin ->
    report "raw-exit" "exit outside bin/; return a result or raise instead"
  | [ "Stdlib"; (("nan" | "infinity" | "neg_infinity") as id) ]
    when not zone.sentinels ->
    report "nan-literal"
      (Printf.sprintf
         "bare %s; use Float.%s (or a Delta / Curve constructor) so the \
          sentinel is explicit"
         id id)
  | ([ "Stdlib"; ("List" as m); (("hd" | "tl") as id) ]
    | [ "Stdlib"; ("Option" as m); ("get" as id) ])
    when zone.core ->
    report "unsafe-partial"
      (Printf.sprintf "partial %s.%s in lib/core; match explicitly" m id)
  | [ "Stdlib"; "Domain"; "spawn" ] when not zone.parallel ->
    report "domain-spawn"
      "raw Domain.spawn outside lib/parallel; use Parallel.Pool so fan-out \
       stays deterministic"
  | _ -> ()

let constant_operand = function
  | ( _,
      Some
        {
          exp_desc =
            Texp_construct (_, { cstr_name = "[]" | "None" | "()" | "true" | "false"; _ }, []);
          _;
        } ) ->
    true
  | _ -> false

(* Called from the engine on every expression; an application is visited
   before its head. *)
let check (ctx : Ctx.t) zone (e : expression) =
  match e.exp_desc with
  | Texp_apply (f, args) when List.exists constant_operand args ->
    ctx.exempt_head <- Some f
  | Texp_ident (p, _, _) ->
    let exempt = match ctx.exempt_head with Some f -> f == e | None -> false in
    ident ctx zone ~exempt e (Paths.full (resolve e p))
  | _ -> ()
