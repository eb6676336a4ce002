(* Typed-tree analysis over .cmt files.

   Loads a cmt (Cmt_format.read_cmt), rebuilds queryable environments
   (Envaux over the cmt's recorded load path), and runs the typed rules:

     cross-domain-capture   mutable state captured by closures that cross a
                            domain boundary (Parallel fan-out, Domain.spawn)
     zero-alloc             allocating constructs reachable from
                            [@@zero_alloc_check] bindings
     unreachable-module     a module no executable imports (one pass over
                            the whole scanned set, see Unreachable)
     unused-export          a value an .mli declares that no executable
                            reaches (the same pass)
     unused-allow           [@lint.allow] that suppresses nothing (only
                            with ~warn_unused_allow, only for typed rules)
     cmt-error              the .cmt could not be read

   Suppression uses the same [@lint.allow "rule"] attribute as the untyped
   lint, with identical scoping semantics. *)

module F = Lint.Finding

let catalogue =
  [
    ( "cross-domain-capture",
      "a closure passed to Parallel.Pool / Parallel.Default or Domain.spawn \
       captures mutable state (ref, array, mutable record field, \
       Hashtbl/Buffer/Queue) that is not Atomic, Mutex-guarded, \
       domain-local, or a recognized single-writer idiom" );
    ( "zero-alloc",
      "an allocating construct (closure, tuple, constructor with arguments, \
       record, array literal, allocating stdlib call, string concat, \
       partial application, float boxing) is reachable from a \
       [@@zero_alloc_check] binding" );
    ( "unreachable-module",
      "no executable (dune's Dune__exe__* units) imports the module, \
       directly or transitively through cmt imports; library alias \
       modules are not edges.  Exempt with a file-level \
       [@@@lint.allow \"unreachable-module\"]" );
    ( "unused-export",
      "a value a library .mli declares that nothing reaches from an \
       executable, following value paths through reached bindings; exempt \
       with [@@lint.allow \"unused-export\"] naming the test that uses it" );
    ( "unused-allow",
      "[@lint.allow] attribute that suppresses no finding of this tool; \
       remove it (reported only with --warn-unused-allow)" );
    ("cmt-error", "the .cmt file could not be read or contains no typed tree");
  ]

let vb_name (vb : Typedtree.value_binding) =
  match vb.vb_pat.pat_desc with
  | Typedtree.Tpat_var (id, _) -> Ident.name id
  | _ -> "<binding>"

(* Pre-pass: every simple [let x = e] in the file, nested or top-level,
   keyed by unique ident name — the expansion map for both rules. *)
let collect_defs (ctx : Ctx.t) (str : Typedtree.structure) =
  let it =
    {
      Tast_iterator.default_iterator with
      value_binding =
        (fun it (vb : Typedtree.value_binding) ->
          (match vb.vb_pat.pat_desc with
          | Typedtree.Tpat_var (id, _) ->
            Hashtbl.replace ctx.Ctx.defs (Ident.unique_name id)
              (Ident.name id, vb.vb_expr)
          | _ -> ());
          Tast_iterator.default_iterator.value_binding it vb);
    }
  in
  it.structure it str

let check_structure ?(warn_unused_allow = false) ~file
    (str : Typedtree.structure) : F.t list =
  let ctx = Ctx.make ~file in
  collect_defs ctx str;
  let it =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun it e ->
          Ctx.with_allows ctx e.exp_attributes (fun () ->
              Captures.check_apply ctx e;
              Tast_iterator.default_iterator.expr it e));
      value_binding =
        (fun it (vb : Typedtree.value_binding) ->
          Ctx.with_allows ctx vb.vb_attributes (fun () ->
              if Ctx.has_attr "zero_alloc_check" vb.vb_attributes then
                Zero_alloc.check ctx ~root_name:(vb_name vb) vb.vb_expr;
              Tast_iterator.default_iterator.value_binding it vb));
      structure_item =
        (fun it si ->
          let attrs =
            match si.str_desc with
            | Typedtree.Tstr_eval (_, attrs) -> attrs
            | _ -> []
          in
          Ctx.with_allows ctx attrs (fun () ->
              Tast_iterator.default_iterator.structure_item it si));
    }
  in
  it.structure it str;
  if warn_unused_allow then begin
    let known = [ "cross-domain-capture"; "zero-alloc" ] in
    Lint.Allow.unused ~warn_all:false ~known ctx.Ctx.allow
    |> List.iter (fun ((loc : Location.t), stale) ->
           Ctx.report ctx ~loc ~rule:"unused-allow"
             (Printf.sprintf
                "[@lint.allow] suppresses nothing here (stale: %s); remove it"
                (String.concat ", " stale)))
  end;
  List.sort_uniq F.compare ctx.Ctx.findings

(* [load_prefix] prepends directories from which the cmt's recorded
   (relative) load path should also be tried — needed when the analyzer
   does not run from the build-context root, e.g. the test runner.
   Returns the per-file findings and, for a readable implementation, the
   unit's entry for the whole-set Unreachable pass. *)
let load_cmt ~warn_unused_allow ~load_prefix path =
  match Cmt_format.read_cmt path with
  | exception exn ->
    ( [
        F.v ~file:path ~line:1 ~col:0 ~rule:"cmt-error"
          (Printexc.to_string exn);
      ],
      None )
  | cmt -> (
    let file = Option.value cmt.cmt_sourcefile ~default:path in
    let dirs = cmt.cmt_loadpath in
    let extra =
      List.concat_map
        (fun pre ->
          List.filter_map
            (fun d ->
              if Filename.is_relative d then Some (Filename.concat pre d)
              else None)
            dirs)
        load_prefix
    in
    Load_path.init ~auto_include:Load_path.no_auto_include (dirs @ extra);
    Envaux.reset_cache ();
    match cmt.cmt_annots with
    | Cmt_format.Implementation str ->
      ( check_structure ~warn_unused_allow ~file str,
        Some (Unreachable.of_cmt ~file ~path cmt) )
    | _ -> ([], None))

let analyze_cmt ?(warn_unused_allow = false) ?(load_prefix = []) path :
    F.t list =
  fst (load_cmt ~warn_unused_allow ~load_prefix path)

(* Every per-file rule over each cmt, then unreachable-module and
   unused-export once over the whole set. *)
let analyze_cmts ?(warn_unused_allow = false) ?(load_prefix = []) paths :
    F.t list =
  let per_file = List.map (load_cmt ~warn_unused_allow ~load_prefix) paths in
  List.concat_map fst per_file
  @ Unreachable.check ~warn_unused_allow (List.filter_map snd per_file)
  |> List.sort_uniq F.compare
