(* Shared per-file state for the per-file rules: finding accumulation,
   [@lint.allow] suppression frames, and the definition map used to expand
   locally-defined functions at capture sites and in [@@zero_alloc_check]
   bodies. *)

module F = Finding

type t = {
  file : string;
  allow : Allow.t;
  (* Ident.unique_name -> (display name, bound expression).  Filled by a
     pre-pass over every value binding in the structure; stamps are unique
     so one flat table is sound. *)
  defs : (string, string * Typedtree.expression) Hashtbl.t;
  (* The head of the comparison being visited when an operand is [] or
     None (Idents): the iterator reaches the head right after its
     application. *)
  mutable exempt_head : Typedtree.expression option;
  mutable findings : F.t list;
}

let make ~file =
  {
    file;
    allow = Allow.make ();
    defs = Hashtbl.create 64;
    exempt_head = None;
    findings = [];
  }

let report t ~(loc : Location.t) ~rule message =
  if not (Allow.allowed t.allow rule) then begin
    let pos = loc.Location.loc_start in
    t.findings <-
      F.v ~file:t.file ~line:pos.Lexing.pos_lnum
        ~col:(pos.Lexing.pos_cnum - pos.Lexing.pos_bol)
        ~rule message
      :: t.findings
  end

let with_allows t attrs f = Allow.with_frames t.allow attrs f

(* cmt environments are summaries; rebuild a queryable Env.t on demand.
   Returns None when the load path is missing a cmi — callers fall back to
   the unexpanded type. *)
let env_of (e : Typedtree.expression) : Env.t option =
  try Some (Envaux.env_of_only_summary e.exp_env) with _ -> None

(* [ty] is float once abbreviations are expanded. *)
let is_float env (ty : Types.type_expr) =
  let ty =
    match env with
    | Some e -> ( try Ctype.expand_head e ty with _ -> ty)
    | None -> ty
  in
  match Types.get_desc ty with
  | Types.Tconstr (p, [], _) -> Path.same p Predef.path_float
  | _ -> false

let has_attr name (attrs : Parsetree.attributes) =
  List.exists
    (fun (a : Parsetree.attribute) -> String.equal a.attr_name.txt name)
    attrs
