(* unreachable-module: one pass over the whole set of scanned .cmt files.

   Roots are the executable units (dune names them Dune__exe__<Name>); the
   edges out of a unit are its cmt_imports.  A unit that no root imports,
   directly or transitively, is a finding.  Dune's generated library
   alias modules (source *.ml-gen) are neither reported nor traversed: an
   alias module imports every module of its library, so following it
   would let one reached module reach the whole library.

   A module that should stay without a user carries a file-level
   [@@@lint.allow "unreachable-module"]; with --warn-unused-allow that
   allow is reported as stale once a root imports the module. *)

module F = Lint.Finding

let rule = "unreachable-module"

type unit_info = {
  name : string; (* compilation unit, e.g. Envelope__Estimate *)
  file : string; (* source file the findings point at *)
  imports : string list;
  allow : Location.t option; (* the file-level allow, if present *)
}

let is_root u = String.starts_with ~prefix:"Dune__exe__" u.name
let is_alias u = Filename.check_suffix u.file ".ml-gen"

let allow_of_structure (str : Typedtree.structure) =
  List.find_map
    (fun (si : Typedtree.structure_item) ->
      match si.str_desc with
      | Typedtree.Tstr_attribute a ->
        List.find_map
          (fun (f : Lint.Allow.frame) ->
            if List.mem rule f.fr_rules then Some f.fr_loc else None)
          (Lint.Allow.frames_of_attributes [ a ])
      | _ -> None)
    str.str_items

let of_cmt ~file (cmt : Cmt_format.cmt_infos) =
  let allow =
    match cmt.cmt_annots with
    | Cmt_format.Implementation str -> allow_of_structure str
    | _ -> None
  in
  { name = cmt.cmt_modname; file; imports = List.map fst cmt.cmt_imports; allow }

(* "Envelope__Estimate" -> "Envelope.Estimate" *)
let display name = String.concat "." (Paths.split_mangled name)

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
  List.filter_map
    (fun u ->
      if is_root u || is_alias u then None
      else
        match (Hashtbl.mem reached u.name, u.allow) with
        | false, None ->
          Some
            (F.v ~file:u.file ~line:1 ~col:0 ~rule
               (Printf.sprintf
                  "no executable imports %s, directly or transitively; \
                   delete it, or exempt it with a file-level \
                   [@@@lint.allow \"%s\"]"
                  (display u.name) rule))
        | true, Some (loc : Location.t) when warn_unused_allow ->
          let pos = loc.loc_start in
          Some
            (F.v ~file:u.file ~line:pos.pos_lnum
               ~col:(pos.pos_cnum - pos.pos_bol) ~rule:"unused-allow"
               (Printf.sprintf
                  "[@lint.allow] suppresses nothing here (stale: %s); \
                   remove it"
                  rule))
        | _ -> None)
    units
