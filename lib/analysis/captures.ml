(* cross-domain-capture: at every closure that crosses a domain boundary —
   arguments of Parallel.Pool / Parallel.Default fan-out calls and of
   Domain.spawn — compute the free variables from the typedtree and flag
   captured mutable state that is not synchronized.

   Known-safe idioms are recognized structurally, not suppressed:
     - Atomic.t / Mutex.t / DLS captures (Mutability.Safe)
     - records that carry their own Mutex (monitor idiom, Pool.t)
     - read-only deref of a captured/global ref ([!Telemetry.on]:
       startup-flag, single-writer discipline)
     - array reads anywhere; array writes whose index varies with a
       closure-local variable (per-index result slots); any array write
       under Domain.spawn (single writer until join)
     - reads of mutable record fields (single-writer discipline); only
       field *writes* in fan-out closures are flagged
   Locally-defined functions that the closure captures are expanded
   transitively (depth-capped), so [Pool.map pool (fun i -> run_one i) xs]
   analyzes [run_one]'s body too; findings carry the via-chain. *)

open Typedtree
module M = Mutability

type site_kind = Fanout | Spawn

let fanout_sites =
  [
    "Pool.map";
    "Pool.map_list";
    "Default.map";
    "Default.map_list";
  ]

let spawn_sites = [ "Domain.spawn" ]

let deref_heads = [ "!" ]
let assign_heads = [ ":="; "incr"; "decr" ]

(* Calls that only read their array/bytes arguments. *)
let array_read_heads =
  [
    "Array.get"; "Array.unsafe_get"; "Array.length"; "Array.iter";
    "Array.iteri"; "Array.fold_left"; "Array.fold_right"; "Array.map";
    "Array.mapi"; "Array.exists"; "Array.for_all"; "Array.mem"; "Array.memq";
    "Array.copy"; "Array.sub"; "Array.to_list"; "Array.append";
    "Float.Array.get"; "Float.Array.unsafe_get"; "Float.Array.length";
    "Bytes.get"; "Bytes.unsafe_get"; "Bytes.length";
  ]

(* head arr idx v — flagged unless the index varies per closure call. *)
let array_write_heads =
  [
    "Array.set"; "Array.unsafe_set"; "Float.Array.set";
    "Float.Array.unsafe_set"; "Bytes.set"; "Bytes.unsafe_set";
  ]

(* Bulk mutation of the whole array: never the per-index idiom. *)
let array_mutate_heads =
  [ "Array.fill"; "Array.blit"; "Array.sort"; "Array.stable_sort";
    "Array.fast_sort"; "Bytes.fill"; "Bytes.blit" ]

type item = { chain : string list; body : expression }

let site_name = function Fanout -> "fan-out" | Spawn -> "Domain.spawn"

let check_closure ctx ~(kind : site_kind) ~site (closure : expression) =
  let is_spawn = match kind with Spawn -> true | Fanout -> false in
  let env = Ctx.env_of closure in
  let visited : (string, unit) Hashtbl.t = Hashtbl.create 8 in
  let kinds : (string, M.kind) Hashtbl.t = Hashtbl.create 16 in
  let queue : item Queue.t = Queue.create () in
  Queue.add { chain = []; body = closure } queue;
  let via chain =
    match chain with
    | [] -> ""
    | c -> Printf.sprintf " (via %s)" (String.concat " -> " (List.rev c))
  in
  let process { chain; body } =
    (* Idents bound anywhere inside [body]: patterns, function params,
       for-loop indices.  Stamps are globally unique, so a flat set is
       sound regardless of scoping. *)
    let bound : (string, unit) Hashtbl.t = Hashtbl.create 32 in
    let add_id id = Hashtbl.replace bound (Ident.unique_name id) () in
    let collector =
      {
        Tast_iterator.default_iterator with
        pat =
          (fun (type k) it (p : k general_pattern) ->
            List.iter add_id (pat_bound_idents p);
            Tast_iterator.default_iterator.pat it p);
        expr =
          (fun it e ->
            (match e.exp_desc with
            | Texp_function { param; _ } -> add_id param
            | Texp_for (id, _, _, _, _, _) -> add_id id
            | _ -> ());
            Tast_iterator.default_iterator.expr it e);
      }
    in
    collector.expr collector body;
    let is_bound id = Hashtbl.mem bound (Ident.unique_name id) in
    (* Classify a (possibly qualified) ident occurrence.  Free local idents
       are captures; Pdot idents are shared globals — both are hazards when
       mutable.  Locally-defined captured functions are queued for
       expansion. *)
    let target (e : expression) : (string * M.kind) option =
      match e.exp_desc with
      | Texp_ident (p, _, _) -> (
        let local_unexpanded id =
          match Hashtbl.find_opt ctx.Ctx.defs (Ident.unique_name id) with
          | Some (name, def) when not (Hashtbl.mem visited (Ident.unique_name id))
            ->
            Some (name, def)
          | _ -> None
        in
        let key, display, expandable =
          match p with
          | Path.Pident id ->
            if is_bound id then ("", "", None)
            else (Ident.unique_name id, Ident.name id, local_unexpanded id)
          | _ -> (Paths.norm p, Paths.norm p, None)
        in
        if String.equal key "" then None
        else
          let k =
            match Hashtbl.find_opt kinds key with
            | Some k -> k
            | None ->
              let k = M.classify env e.exp_type in
              Hashtbl.replace kinds key k;
              k
          in
          match k with
          | M.Safe _ -> None
          | M.Func ->
            (match expandable with
            | Some (name, def) when List.length chain < 4 ->
              Hashtbl.replace visited
                (match p with
                | Path.Pident id -> Ident.unique_name id
                | _ -> key)
                ();
              Queue.add { chain = name :: chain; body = def } queue
            | _ -> ());
            None
          | k -> Some (display, k))
      | _ -> None
    in
    let bad ~loc fmt =
      Printf.ksprintf
        (fun m ->
          Ctx.report ctx ~loc ~rule:"cross-domain-capture" (m ^ via chain))
        fmt
    in
    let mentions_bound idx =
      let hit = ref false in
      let it =
        {
          Tast_iterator.default_iterator with
          expr =
            (fun it e ->
              (match e.exp_desc with
              | Texp_ident (Path.Pident id, _, _) when is_bound id -> hit := true
              | _ -> ());
              Tast_iterator.default_iterator.expr it e);
        }
      in
      it.expr it idx;
      !hit
    in
    let rec walk (e : expression) =
      Ctx.with_allows ctx e.exp_attributes (fun () -> walk_desc e)
    and walk_opt = function Some e -> walk e | None -> ()
    and head_is heads = function
      | { exp_desc = Texp_ident (p, _, _); _ } -> Paths.matches_any p heads
      | _ -> false
    and walk_desc e =
      match e.exp_desc with
      | Texp_apply (head, args) when head_is deref_heads head -> (
        match args with
        | [ (_, Some a) ] -> (
          match target a with
          | Some (_, M.Ref) -> () (* read-only deref: allowed *)
          | _ -> walk a)
        | _ -> walk_children e)
      | Texp_apply (head, args) when head_is assign_heads head -> (
        match args with
        | (_, Some a) :: rest ->
          (match target a with
          | Some (name, M.Ref) ->
            bad ~loc:e.exp_loc
              "captured ref %s is mutated inside a %s closure; use Atomic.t \
               (or a Mutex-guarded record)"
              name (site_name kind)
          | _ -> walk a);
          List.iter (fun (_, a) -> walk_opt a) rest
        | _ -> walk_children e)
      | Texp_apply (head, args) when head_is array_read_heads head ->
        List.iter
          (fun (_, a) ->
            match a with
            | Some a -> (
              match target a with Some (_, M.Arr _) -> () | _ -> walk a)
            | None -> ())
          args
      | Texp_apply (head, args) when head_is array_write_heads head -> (
        match args with
        | (_, Some a) :: (_, Some idx) :: rest ->
          (match target a with
          | Some (name, M.Arr an) ->
            if is_spawn || mentions_bound idx then ()
            else
              bad ~loc:e.exp_loc
                "captured %s %s is written at an index that does not vary \
                 with a closure-local variable; per-index result slots must \
                 be indexed by the closure's own parameter"
                an name
          | _ -> walk a);
          walk idx;
          List.iter (fun (_, a) -> walk_opt a) rest
        | _ -> walk_children e)
      | Texp_apply (head, args) when head_is array_mutate_heads head ->
        List.iter
          (fun (_, a) ->
            match a with
            | Some a -> (
              match target a with
              | Some (name, M.Arr an) ->
                if is_spawn then ()
                else
                  bad ~loc:e.exp_loc
                    "captured %s %s is bulk-mutated inside a %s closure" an
                    name (site_name kind)
              | _ -> walk a)
            | None -> ())
          args
      | Texp_field (a, _, _) -> (
        (* Reads of captured mutable-record fields follow the repo's
           single-writer discipline (e.g. the serve engine's [t.cfg]);
           [r.contents] reads likewise. *)
        match target a with Some _ -> () | None -> walk a)
      | Texp_setfield (a, _, lbl, v) ->
        (match target a with
        | Some (name, M.Mut_record tp) ->
          bad ~loc:e.exp_loc
            "field %s of captured mutable record %s (%s) is written inside a \
             %s closure; guard it with a Mutex or use Atomic fields"
            lbl.lbl_name name tp (site_name kind)
        | Some (name, M.Ref) ->
          bad ~loc:e.exp_loc
            "captured ref %s is mutated (via .contents) inside a %s closure; \
             use Atomic.t"
            name (site_name kind)
        | Some (name, _) ->
          bad ~loc:e.exp_loc
            "field %s of captured value %s is written inside a %s closure"
            lbl.lbl_name name (site_name kind)
        | None -> walk a);
        walk v
      | Texp_ident _ -> (
        match target e with
        | Some (name, M.Ref) ->
          bad ~loc:e.exp_loc
            "captured ref %s escapes (or is used beyond a plain ! read) in a \
             %s closure; use Atomic.t"
            name (site_name kind)
        | Some (name, M.Arr an) ->
          bad ~loc:e.exp_loc
            "captured %s %s escapes the read / per-index-write pattern in a \
             %s closure"
            an name (site_name kind)
        | Some (name, M.Container cn) ->
          bad ~loc:e.exp_loc
            "captured %s %s is not domain-safe; build it per-chunk or guard \
             it with a Mutex"
            cn name
        | Some (_, (M.Mut_record _ | M.Func | M.Safe _)) | None -> ())
      | _ -> walk_children e
    and walk_children e =
      let it =
        {
          Tast_iterator.default_iterator with
          expr = (fun _ e -> walk e);
        }
      in
      Tast_iterator.default_iterator.expr it e
    in
    (* Walk the closure's cases directly so the outermost Texp_function is
       not itself treated as a child occurrence. *)
    match body.exp_desc with
    | Texp_function { cases; _ } ->
      List.iter
        (fun c ->
          walk_opt c.c_guard;
          walk c.c_rhs)
        cases
    | _ -> walk body
  in
  while not (Queue.is_empty queue) do
    process (Queue.pop queue)
  done;
  ignore site

(* Trigger detection: called from the engine on every application node. *)
let check_apply ctx (e : expression) =
  match e.exp_desc with
  | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, args)
    when Paths.matches_any p (fanout_sites @ spawn_sites) ->
    let kind = if Paths.matches_any p spawn_sites then Spawn else Fanout in
    let site = Paths.norm p in
    List.iter
      (fun (_, arg) ->
        match arg with
        | Some ({ exp_desc = Texp_function _; _ } as a) ->
          check_closure ctx ~kind ~site a
        | Some { exp_desc = Texp_ident (Path.Pident id, _, _); _ } -> (
          (* [Pool.map pool run_one xs]: expand the locally-defined
             function as if it were a literal closure. *)
          match Hashtbl.find_opt ctx.Ctx.defs (Ident.unique_name id) with
          | Some (_, ({ exp_desc = Texp_function _; _ } as def)) ->
            check_closure ctx ~kind ~site def
          | _ -> ())
        | _ -> ())
      args
  | _ -> ()
