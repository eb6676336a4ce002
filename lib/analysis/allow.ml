(* Suppression frames for [@lint.allow "rule ..."] with usage tracking.

   A frame is pushed per attribute; when a rule fires under it, the
   innermost matching frame records the rule id.  After a run, [unused]
   lists the attributes that suppressed nothing, but only for the rule ids
   the caller owns ([known]): the per-file pass (Engine) and the whole-set
   pass (Unreachable) each judge their own ids, so neither calls the
   other's allow stale.  Bare / "all" attributes belong to whichever
   caller passes [~warn_all:true], the per-file pass. *)

type frame = {
  fr_rules : string list; (* rule ids, or ["all"] *)
  fr_loc : Location.t;
  mutable fr_used : string list; (* rule ids that this frame suppressed *)
}

type t = {
  mutable active : frame list; (* innermost first *)
  mutable seen : frame list; (* every frame ever pushed, reverse order *)
}

let make () = { active = []; seen = [] }

let frames_of_attributes (attrs : Parsetree.attributes) : frame list =
  List.concat_map
    (fun (a : Parsetree.attribute) ->
      if not (String.equal a.attr_name.txt "lint.allow") then []
      else
        let rules =
          match a.attr_payload with
          | PStr
              [
                {
                  pstr_desc =
                    Pstr_eval
                      ( { pexp_desc = Pexp_constant (Pconst_string (s, _, _)); _ },
                        _ );
                  _;
                };
              ] -> (
            match String.split_on_char ' ' s |> List.filter (fun r -> not (String.equal r "")) with
            | [] -> [ "all" ]
            | rs -> rs)
          | _ -> [ "all" ]
        in
        [ { fr_rules = rules; fr_loc = a.attr_name.loc; fr_used = [] } ])
    attrs

(* Is [rule] suppressed here?  Marks the innermost matching frame used. *)
let allowed t rule =
  let rec go = function
    | [] -> false
    | f :: rest ->
      if List.mem rule f.fr_rules || List.mem "all" f.fr_rules then begin
        if not (List.mem rule f.fr_used) then f.fr_used <- rule :: f.fr_used;
        true
      end
      else go rest
  in
  go t.active

let with_frames t (attrs : Parsetree.attributes) f =
  match frames_of_attributes attrs with
  | [] -> f ()
  | fs ->
    let saved = t.active in
    t.active <- fs @ t.active;
    t.seen <- fs @ t.seen;
    Fun.protect ~finally:(fun () -> t.active <- saved) f

(* Frames that suppressed nothing, restricted to the caller's rule ids.
   Returns [(loc, unused-rule-ids)] in source order.  The same attribute is
   pushed as a distinct frame instance by every walker that traverses its
   expression (the engine iterator plus each rule's own walk), so usage is
   merged per attribute location before deciding staleness, and each
   location is reported at most once. *)
let unused ?(warn_all = false) ~known t =
  let frames = List.rev t.seen in
  let used_at : (Location.t, string list) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun f ->
      let prev =
        Option.value (Hashtbl.find_opt used_at f.fr_loc) ~default:[]
      in
      Hashtbl.replace used_at f.fr_loc (f.fr_used @ prev))
    frames;
  let reported : (Location.t, unit) Hashtbl.t = Hashtbl.create 16 in
  List.filter_map
    (fun f ->
      if Hashtbl.mem reported f.fr_loc then None
      else begin
        Hashtbl.replace reported f.fr_loc ();
        let used =
          Option.value (Hashtbl.find_opt used_at f.fr_loc) ~default:[]
        in
        if List.mem "all" f.fr_rules then
          if warn_all && used = [] then Some (f.fr_loc, [ "all" ]) else None
        else
          let stale =
            List.filter
              (fun r -> List.mem r known && not (List.mem r used))
              f.fr_rules
          in
          if stale = [] then None else Some (f.fr_loc, stale)
      end)
    frames
