(* zero-alloc: bodies of [@@zero_alloc_check] bindings are walked
   transitively (same-file callees expanded, depth-capped), flagging
   allocating constructs: closure creation, tuples, constructors with
   arguments, records, array literals, known allocating calls (Array.make,
   List building, string concat, Printf/Format, ...), partial application,
   and option/result boxing of floats.

   Allowed without annotation, because the compiler does not heap-allocate
   them or the repo's hot paths rely on them:
     - let-bound refs used only via ! / := / incr / decr / .contents
       (int refs in scan loops — the compiler keeps them in registers)
     - Some/None/Ok/Error with a non-float payload (the Serve.Cache lookup
       contract returns [Some v]); float payloads are flagged as boxing
     - raise / failwith / invalid_arg argument subtrees (error paths)
   Genuinely-allocating entry scratch (e.g. the [Array.make] result
   buffer of [Minplus.Curve.normalize_sub]) carries an expression-level
   [@lint.allow "zero-alloc"] with a justification comment. *)

open Typedtree

let alloc_call_heads =
  [
    "Array.make"; "Array.init"; "Array.create_float"; "Array.make_matrix";
    "Array.append"; "Array.concat"; "Array.sub"; "Array.copy";
    "Array.of_list"; "Array.to_list"; "Array.map"; "Array.mapi";
    "Array.map2"; "Array.split"; "Array.combine"; "Array.of_seq";
    "Array.to_seq";
    "List.init"; "List.map"; "List.mapi"; "List.map2"; "List.rev_map";
    "List.append"; "List.rev_append"; "List.concat"; "List.concat_map";
    "List.flatten"; "List.filter"; "List.filter_map"; "List.partition";
    "List.split"; "List.combine"; "List.sort"; "List.stable_sort";
    "List.fast_sort"; "List.sort_uniq"; "List.merge"; "List.rev";
    "List.of_seq"; "List.cons";
    "String.make"; "String.init"; "String.sub"; "String.concat";
    "String.cat"; "String.map"; "String.mapi"; "String.trim";
    "String.escaped"; "String.uppercase_ascii"; "String.lowercase_ascii";
    "String.capitalize_ascii"; "String.split_on_char"; "String.of_bytes";
    "String.to_bytes";
    "Bytes.make"; "Bytes.create"; "Bytes.init"; "Bytes.sub"; "Bytes.copy";
    "Bytes.extend"; "Bytes.concat"; "Bytes.cat"; "Bytes.of_string";
    "Bytes.to_string";
    "Buffer.create"; "Buffer.contents"; "Buffer.to_bytes";
    "Hashtbl.create"; "Hashtbl.copy"; "Hashtbl.fold"; "Hashtbl.to_seq";
    "Queue.create"; "Stack.create"; "Atomic.make"; "Lazy.from_fun";
    "^"; "@"; "^^";
    "string_of_int"; "string_of_float"; "string_of_bool";
  ]

let alloc_module_prefixes = [ "Printf."; "Format."; "Fmt." ]

let raise_heads =
  [ "raise"; "raise_notrace"; "failwith"; "invalid_arg";
    "Printexc.raise_with_backtrace" ]

let ref_ops = [ "!"; ":="; "incr"; "decr" ]

let head_path = function
  | { exp_desc = Texp_ident (p, _, _); _ } -> Some p
  | _ -> None

let is_float env (ty : Types.type_expr) =
  let ty =
    match env with
    | Some e -> ( try Ctype.expand_head e ty with _ -> ty)
    | None -> ty
  in
  match Types.get_desc ty with
  | Types.Tconstr (p, [], _) -> Paths.matches p "float"
  | _ -> false

(* Every occurrence of [id] is a deref / assignment (! := incr decr,
   .contents access): the compiler never materializes the ref cell's
   address, so the allocation is elided or stays local. *)
let only_ref_ops id exprs =
  let ok = ref true in
  let rec scan e =
    match e.exp_desc with
    | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, args)
      when Paths.matches_any p ref_ops -> (
      match args with
      | (_, Some { exp_desc = Texp_ident (Path.Pident i, _, _); _ }) :: rest
        when Ident.same i id ->
        List.iter (fun (_, a) -> Option.iter scan a) rest
      | _ -> List.iter (fun (_, a) -> Option.iter scan a) args)
    | Texp_field ({ exp_desc = Texp_ident (Path.Pident i, _, _); _ }, _, _)
      when Ident.same i id -> ()
    | Texp_setfield
        ({ exp_desc = Texp_ident (Path.Pident i, _, _); _ }, _, _, v)
      when Ident.same i id -> scan v
    | Texp_ident (Path.Pident i, _, _) when Ident.same i id -> ok := false
    | _ ->
      let it =
        { Tast_iterator.default_iterator with expr = (fun _ e -> scan e) }
      in
      Tast_iterator.default_iterator.expr it e
  in
  List.iter scan exprs;
  !ok

let is_ref_alloc e =
  match e.exp_desc with
  | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, [ (_, Some _) ]) ->
    Paths.matches p "ref"
  | _ -> false

type item = { chain : string list; body : expression }

let check ctx ~(root_name : string) (root : expression) =
  let visited : (string, unit) Hashtbl.t = Hashtbl.create 8 in
  let queue : item Queue.t = Queue.create () in
  (* Strip the curried parameter layers: nested Texp_function chains are
     the function's own parameters, not closure allocations. *)
  let rec bodies e =
    match e.exp_desc with
    | Texp_function { cases; _ } ->
      List.concat_map
        (fun c ->
          (match c.c_guard with Some g -> [ g ] | None -> [])
          @ bodies c.c_rhs)
        cases
    | _ -> [ e ]
  in
  List.iter (fun b -> Queue.add { chain = []; body = b } queue) (bodies root);
  let via chain =
    match chain with
    | [] -> ""
    | c -> Printf.sprintf " (via %s)" (String.concat " -> " (List.rev c))
  in
  let process { chain; body } =
    let env = Ctx.env_of body in
    let bad ~loc fmt =
      Printf.ksprintf
        (fun m ->
          Ctx.report ctx ~loc ~rule:"zero-alloc"
            (Printf.sprintf "%s in [@@zero_alloc_check] %s%s" m root_name
               (via chain)))
        fmt
    in
    let expand ~loc:_ id =
      let key = Ident.unique_name id in
      if (not (Hashtbl.mem visited key)) && List.length chain < 5 then
        match Hashtbl.find_opt ctx.Ctx.defs key with
        | Some (name, def) ->
          Hashtbl.replace visited key ();
          List.iter
            (fun b -> Queue.add { chain = name :: chain; body = b } queue)
            (bodies def)
        | None -> ()
    in
    let rec walk e =
      Ctx.with_allows ctx e.exp_attributes (fun () -> walk_desc e)
    and walk_children e =
      let it =
        { Tast_iterator.default_iterator with expr = (fun _ e -> walk e) }
      in
      Tast_iterator.default_iterator.expr it e
    and walk_vb (vb : value_binding) scope =
      Ctx.with_allows ctx vb.vb_attributes (fun () ->
          match vb.vb_pat.pat_desc with
          | Tpat_var (id, _)
            when is_ref_alloc vb.vb_expr && only_ref_ops id scope -> (
            (* Non-escaping local ref. *)
            match vb.vb_expr.exp_desc with
            | Texp_apply (_, [ (_, Some init) ]) -> walk init
            | _ -> ())
          | _ -> walk vb.vb_expr)
    and walk_desc e =
      match e.exp_desc with
      | Texp_let (_, vbs, body) ->
        let scope = body :: List.map (fun vb -> vb.vb_expr) vbs in
        List.iter (fun vb -> walk_vb vb scope) vbs;
        walk body
      | Texp_function _ ->
        bad ~loc:e.exp_loc "closure allocation; hoist it to the top level"
      | Texp_tuple _ ->
        bad ~loc:e.exp_loc "tuple allocation";
        walk_children e
      | Texp_construct (_, cstr, args) when args <> [] ->
        (match cstr.cstr_name with
        | "Some" | "Ok" | "Error" ->
          List.iter
            (fun (a : expression) ->
              if is_float env a.exp_type then
                bad ~loc:e.exp_loc
                  "%s of a float boxes the float" cstr.cstr_name)
            args
        | name -> bad ~loc:e.exp_loc "constructor %s allocation" name);
        walk_children e
      | Texp_record _ ->
        bad ~loc:e.exp_loc "record allocation";
        walk_children e
      | Texp_array [] -> () (* [||] is a static constant, no allocation *)
      | Texp_array _ ->
        bad ~loc:e.exp_loc "array literal allocation";
        walk_children e
      | Texp_lazy _ ->
        bad ~loc:e.exp_loc "lazy-block allocation";
        walk_children e
      | Texp_assert _ -> () (* error path *)
      | Texp_apply (head, args) -> (
        match head_path head with
        | Some p when Paths.matches_any p raise_heads ->
          () (* error path: the raise and its payload are cold *)
        | Some p ->
          let norm = Paths.norm p in
          if Paths.matches_any p alloc_call_heads then
            bad ~loc:e.exp_loc "call to %s allocates" norm
          else if
            List.exists
              (fun pre -> String.length norm > String.length pre
                          && String.sub norm 0 (String.length pre) = pre)
              alloc_module_prefixes
          then bad ~loc:e.exp_loc "call to %s allocates (formatting)" norm
          else if is_ref_alloc e then
            bad ~loc:e.exp_loc
              "ref allocation escapes; local refs are allowed only when \
               used solely via ! / := / incr / decr"
          else begin
            (* Same-file callee: walk its body transitively. *)
            (match p with
            | Path.Pident id -> expand ~loc:e.exp_loc id
            | _ -> ());
            (* Partial application materializes a closure. *)
            let ty =
              match env with
              | Some en -> ( try Ctype.expand_head en e.exp_type with _ -> e.exp_type)
              | None -> e.exp_type
            in
            (match Types.get_desc ty with
            | Types.Tarrow _ ->
              bad ~loc:e.exp_loc "partial application of %s allocates a closure"
                norm
            | _ -> ());
            if List.exists (fun (_, a) -> a = None) args then
              bad ~loc:e.exp_loc
                "abstracted labelled application of %s allocates a closure"
                norm
          end;
          List.iter (fun (_, a) -> Option.iter walk a) args
        | None ->
          walk head;
          List.iter (fun (_, a) -> Option.iter walk a) args)
      | _ -> walk_children e
    in
    walk body
  in
  while not (Queue.is_empty queue) do
    process (Queue.pop queue)
  done
