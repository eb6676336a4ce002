(* unreachable-module and unused-export: one pass over the whole set of
   scanned .cmt files.  Roots are the executable units (dune names them
   Dune__exe__<Name>): the executables of bin/, bench/, perfbench/,
   perfbench/test/ and examples/.

   unreachable-module: the edges out of a unit are its cmt_imports.  A
   unit that no root imports, directly or transitively, is a finding.
   Dune's generated library alias modules (source *.ml-gen) are neither
   reported nor traversed: an alias module imports every module of its
   library, so following it would let one reached module reach the whole
   library.

   unused-export: the edges are value paths (Texp_ident), nested-module
   paths such as E2e.Reference.delay_given included, module aliases
   followed to their target.  A root, a top-level effect of a linked unit
   and the body of each reached binding reach the values they name.  A
   module named whole (a functor, its argument, an include, a packed
   first-class module) reaches every value under it, so what the pass
   cannot resolve yields no finding.  A value the unit's .mli declares
   (read from the sibling .cmti) that nothing reaches is a finding,
   except in a module that unreachable-module reports or exempts; an
   exempt module is kept whole, so it reaches all that it names.

   A module that should stay without a user carries a file-level
   [@@@lint.allow "unreachable-module"]; a value that only tests use (an
   oracle, a hook through which a test drives or observes production
   state) carries [@@lint.allow "unused-export"] on its .mli declaration.
   With --warn-unused-allow either allow is reported once it is stale. *)

module F = Lint.Finding

let rule = "unreachable-module"
let export_rule = "unused-export"

(* A value path as written: the unit it starts from and the path inside
   it, e.g. ("Deltanet", ["E2e"; "Reference"; "delay_given"]). *)
type target = string * string list

type export = {
  value : string list; (* path inside the unit *)
  decl : Location.t; (* the val in the .mli *)
  allowed : Location.t option; (* its [@@lint.allow "unused-export"] *)
}

type unit_info = {
  name : string; (* compilation unit, e.g. Envelope__Estimate *)
  file : string; (* source file the findings point at *)
  imports : string list;
  allow : Location.t option; (* the file-level allow, if present *)
  defs : (string list * target list) list; (* binding path, paths its body names *)
  effects : target list; (* paths the top-level effects name; all of a root's *)
  exports : export list;
}

let is_root u = String.starts_with ~prefix:"Dune__exe__" u.name
let is_alias u = Filename.check_suffix u.file ".ml-gen"

let allow_in ~rule attrs =
  List.find_map
    (fun (f : Lint.Allow.frame) ->
      if List.mem rule f.fr_rules then Some f.fr_loc else None)
    (Lint.Allow.frames_of_attributes attrs)

(* The defs and effects of an implementation.  [paths] maps each
   structure-level value or module ident to its path in the unit,
   [aliases] each module alias to its target; both fill in source order,
   before any use. *)
let uses_of ~name ~root (str : Typedtree.structure) =
  let open Typedtree in
  let paths = Hashtbl.create 64 and aliases = Hashtbl.create 8 in
  let rec resolve : Path.t -> target option = function
    | Pident id when Ident.global id -> Some (Ident.name id, [])
    | Pident id -> (
      let k = Ident.unique_name id in
      match Hashtbl.find_opt paths k with
      | Some q -> Some (name, q)
      | None -> Option.bind (Hashtbl.find_opt aliases k) resolve)
    | Pdot (p, s) -> Option.map (fun (u, q) -> (u, q @ [ s ])) (resolve p)
    | Papply _ | Pextra_ty _ -> None
  in
  let alias id (me : module_expr) =
    match (id, me.mod_desc) with
    | Some id, Tmod_ident (p, _) ->
      Hashtbl.replace aliases (Ident.unique_name id) p;
      true
    | _ -> false
  in
  let uses visit =
    let out = ref [] in
    let use p = Option.iter (fun t -> out := t :: !out) (resolve p) in
    let super = Tast_iterator.default_iterator in
    visit
      {
        super with
        expr =
          (fun it e ->
            match e.exp_desc with
            | Texp_ident (p, _, _) -> use p
            | Texp_letmodule (id, _, _, me, body) when alias id me -> it.expr it body
            | _ -> super.expr it e);
        module_expr =
          (fun it me ->
            match me.mod_desc with
            | Tmod_ident (p, _) -> use p
            | _ -> super.module_expr it me);
        module_binding =
          (fun it mb -> if not (alias mb.mb_id mb.mb_expr) then super.module_binding it mb);
        open_declaration =
          (fun it od ->
            match od.open_expr.mod_desc with
            | Tmod_ident _ -> ()
            | _ -> super.open_declaration it od);
      };
    !out
  in
  let defs = ref [] and effects = ref [] in
  let bind prefix id =
    let p = prefix @ [ Ident.name id ] in
    Hashtbl.replace paths (Ident.unique_name id) p;
    p
  in
  let rec walk prefix (str : structure) =
    List.iter
      (fun si ->
        match si.str_desc with
        | Tstr_value (_, vbs) ->
          let bound =
            List.map (fun vb -> (vb, List.map (bind prefix) (pat_bound_idents vb.vb_pat))) vbs
          in
          List.iter
            (fun (vb, ps) ->
              let u = uses (fun it -> it.expr it vb.vb_expr) in
              if ps = [] then effects := u @ !effects
              else List.iter (fun p -> defs := (p, u) :: !defs) ps)
            bound
        | Tstr_primitive vd -> defs := (bind prefix vd.val_id, []) :: !defs
        | Tstr_module ({ mb_id = Some id; _ } as mb) when not (alias mb.mb_id mb.mb_expr) -> (
          let p = bind prefix id in
          match mb.mb_expr.mod_desc with
          | Tmod_structure s | Tmod_constraint ({ mod_desc = Tmod_structure s; _ }, _, _, _) ->
            walk p s
          | _ -> defs := (p, uses (fun it -> it.module_expr it mb.mb_expr)) :: !defs)
        | Tstr_module _ | Tstr_type _ | Tstr_typext _ | Tstr_exception _ | Tstr_modtype _
        | Tstr_class_type _ | Tstr_attribute _ ->
          ()
        | _ -> effects := uses (fun it -> it.structure_item it si) @ !effects)
      str.str_items
  in
  if root then effects := uses (fun it -> it.structure it str) else walk [] str;
  (!defs, !effects)

(* The values an .mli declares, nested-module values included. *)
let exports_of_cmti path =
  let rec go prefix (sg : Typedtree.signature) =
    List.concat_map
      (fun (si : Typedtree.signature_item) ->
        match si.sig_desc with
        | Tsig_value vd ->
          let allowed = allow_in ~rule:export_rule vd.val_attributes in
          [ { value = prefix @ [ vd.val_name.txt ]; decl = vd.val_loc; allowed } ]
        | Tsig_module { md_id = Some id; md_type = { mty_desc = Tmty_signature s; _ }; _ } ->
          go (prefix @ [ Ident.name id ]) s
        | _ -> [])
      sg.sig_items
  in
  match Cmt_format.read_cmt path with
  | { cmt_annots = Interface sg; _ } -> go [] sg
  | _ | (exception _) -> []

let of_cmt ~file ~path (cmt : Cmt_format.cmt_infos) =
  let u =
    { name = cmt.cmt_modname; file; imports = List.map fst cmt.cmt_imports; allow = None;
      defs = []; effects = []; exports = [] }
  in
  match cmt.cmt_annots with
  | Implementation str when not (is_alias u) ->
    let defs, effects = uses_of ~name:u.name ~root:(is_root u) str in
    let cmti = Filename.remove_extension path ^ ".cmti" in
    let allow =
      List.find_map
        (fun (si : Typedtree.structure_item) ->
          match si.str_desc with Tstr_attribute a -> allow_in ~rule [ a ] | _ -> None)
        str.str_items
    in
    let exports = if Sys.file_exists cmti then exports_of_cmti cmti else [] in
    { u with allow; defs; effects; exports }
  | _ -> u

(* "Envelope__Estimate" -> "Envelope.Estimate" *)
let display name = String.concat "." (Paths.split_mangled name)

let at ~file ~rule (loc : Location.t) msg =
  let pos = loc.loc_start in
  F.v ~file ~line:pos.pos_lnum ~col:(pos.pos_cnum - pos.pos_bol) ~rule msg

let stale ~file r loc =
  at ~file ~rule:"unused-allow" loc
    (Printf.sprintf "[@lint.allow] suppresses nothing here (stale: %s); remove it" r)

let rec is_prefix p q =
  match (p, q) with [], _ -> true | x :: p, y :: q -> x = y && is_prefix p q | _ -> false

let check ?(warn_unused_allow = false) (units : unit_info list) : F.t list =
  (* Executables of different directories share unit names (two
     Dune__exe__Main), so a name maps to every unit that carries it. *)
  let by_name = Hashtbl.create 64 in
  List.iter (fun u -> Hashtbl.add by_name u.name u) units;
  let reached = Hashtbl.create 64 in
  let rec visit name =
    if not (Hashtbl.mem reached name) then begin
      Hashtbl.replace reached name ();
      List.iter
        (fun u -> if not (is_alias u) then List.iter visit u.imports)
        (Hashtbl.find_all by_name name)
    end
  in
  List.iter (fun u -> if is_root u then List.iter visit u.imports) units;
  (* Deltanet.E2e.f, through dune's alias module, is Deltanet__E2e.f. *)
  let rec canon (n, p) =
    match p with
    | m :: rest when Hashtbl.mem by_name (n ^ "__" ^ m) -> canon (n ^ "__" ^ m, rest)
    | _ -> (n, p)
  in
  (* Reaching a path reaches the bindings under it and the module binding
     above it (a functor application). *)
  let live = Hashtbl.create 1024 in
  let rec reach t =
    let ((n, p) as t) = canon t in
    if not (Hashtbl.mem live t) then begin
      Hashtbl.replace live t ();
      List.iter
        (fun u ->
          List.iter
            (fun (d, uses) -> if is_prefix p d || is_prefix d p then List.iter reach uses)
            u.defs)
        (Hashtbl.find_all by_name n)
    end
  in
  List.iter
    (fun u ->
      if is_root u || Hashtbl.mem reached u.name || u.allow <> None then List.iter reach u.effects;
      if u.allow <> None then reach (u.name, []))
    units;
  let is_live u v =
    List.exists
      (fun k -> Hashtbl.mem live (u.name, List.filteri (fun i _ -> i < k) v))
      (List.init (List.length v + 1) Fun.id)
  in
  let export u e =
    let file = e.decl.loc_start.pos_fname in
    match (is_live u e.value, e.allowed) with
    | false, None ->
      Some
        (at ~file ~rule:export_rule e.decl
           (Printf.sprintf
              "no executable reaches %s; delete it, or keep it for a test with \
               [@@lint.allow \"%s\"]"
              (String.concat "." (display u.name :: e.value)) export_rule))
    | true, Some loc when warn_unused_allow -> Some (stale ~file export_rule loc)
    | _ -> None
  in
  List.concat_map
    (fun u ->
      if is_root u || is_alias u then []
      else
        match (Hashtbl.mem reached u.name, u.allow) with
        | false, None ->
          [
            F.v ~file:u.file ~line:1 ~col:0 ~rule
              (Printf.sprintf
                 "no executable imports %s, directly or transitively; \
                  delete it, or exempt it with a file-level \
                  [@@@lint.allow \"%s\"]"
                 (display u.name) rule);
          ]
        | true, Some loc when warn_unused_allow -> [ stale ~file:u.file rule loc ]
        | true, None -> List.filter_map (export u) u.exports
        | _ -> [])
    units
