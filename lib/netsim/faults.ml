(* Seeded per-node capacity-degradation processes for fault injection. *)

type spec =
  | Constant of float
  | Windows of (int * int * float) list
  | Gilbert of { p_fail : float; p_recover : float; factor : float }

let check_factor ~what f =
  if Float.is_nan f || f < 0. || f > 1. then
    invalid_arg (Printf.sprintf "%s: capacity factor %g outside [0, 1]" what f)

let check_prob ~what p =
  if Float.is_nan p || p < 0. || p > 1. then
    invalid_arg (Printf.sprintf "%s: probability %g outside [0, 1]" what p)

let validate = function
  | Constant f -> check_factor ~what:"Faults.Constant" f
  | Windows ws ->
    if ws = [] then invalid_arg "Faults.Windows: empty window list";
    List.iter
      (fun (start, stop, f) ->
        if start < 0 then invalid_arg "Faults.Windows: negative start slot";
        if stop <= start then invalid_arg "Faults.Windows: window must end after it starts";
        check_factor ~what:"Faults.Windows" f)
      ws
  | Gilbert { p_fail; p_recover; factor } ->
    check_prob ~what:"Faults.Gilbert p_fail" p_fail;
    check_prob ~what:"Faults.Gilbert p_recover" p_recover;
    check_factor ~what:"Faults.Gilbert" factor

let stationary_factor = function
  | Constant f -> f
  | Windows ws -> List.fold_left (fun acc (_, _, f) -> Float.min acc f) 1. ws
  | Gilbert { p_fail; p_recover; factor } ->
    if Float.equal p_fail 0. then 1.
    else begin
      let p_degraded = p_fail /. (p_fail +. p_recover) in
      (1. -. p_degraded) +. (p_degraded *. factor)
    end

type process = {
  spec : spec;
  rng : Desim.Prng.t option;
  mutable slot : int;
  mutable degraded : bool;  (* Gilbert state *)
  mutable sum_factor : float;
  mutable transitions : int;  (* realized healthy<->degraded flips *)
}

let make ?rng spec =
  validate spec;
  (match spec with
  | Gilbert _ when rng = None -> invalid_arg "Faults.make: Gilbert process needs an rng"
  | _ -> ());
  { spec; rng; slot = 0; degraded = false; sum_factor = 0.; transitions = 0 }

let step p =
  let factor =
    match p.spec with
    | Constant f -> f
    | Windows ws ->
      List.fold_left
        (fun acc (start, stop, f) ->
          if p.slot >= start && p.slot < stop then Float.min acc f else acc)
        1. ws
    | Gilbert { p_fail; p_recover; factor } ->
      let rng = Option.get p.rng in
      let f = if p.degraded then factor else 1. in
      (if p.degraded then begin
         if Desim.Prng.bernoulli rng ~p:p_recover then begin
           p.degraded <- false;
           p.transitions <- p.transitions + 1
         end
       end
       else if Desim.Prng.bernoulli rng ~p:p_fail then begin
         p.degraded <- true;
         p.transitions <- p.transitions + 1
       end);
      f
  in
  p.slot <- p.slot + 1;
  p.sum_factor <- p.sum_factor +. factor;
  factor

let mean_factor p =
  if p.slot = 0 then 1. else p.sum_factor /. float_of_int p.slot

let transitions p = p.transitions

(* ---------------- textual specs (CLI / checkpoint headers) ---------------- *)

let spec_to_string = function
  | Constant f -> Printf.sprintf "const:%g" f
  | Windows ws ->
    String.concat "+"
      (List.map (fun (a, b, f) -> Printf.sprintf "window:%d-%d:%g" a b f) ws)
  | Gilbert { p_fail; p_recover; factor } ->
    Printf.sprintf "gilbert:%g:%g:%g" p_fail p_recover factor

let spec_of_string str =
  let fail () =
    Error
      (Printf.sprintf
         "bad fault spec %S (const:F | window:A-B:F | gilbert:PFAIL:PREC:F)" str)
  in
  let float_of s = float_of_string_opt s in
  let parse_one s =
    match String.split_on_char ':' s with
    | [ "const"; f ] -> (
      match float_of f with Some f -> Some (Constant f) | None -> None)
    | [ "window"; range; f ] -> (
      match (String.split_on_char '-' range, float_of f) with
      | ([ a; b ], Some f) -> (
        match (int_of_string_opt a, int_of_string_opt b) with
        | (Some a, Some b) -> Some (Windows [ (a, b, f) ])
        | _ -> None)
      | _ -> None)
    | [ "gilbert"; pf; pr; f ] -> (
      match (float_of pf, float_of pr, float_of f) with
      | (Some p_fail, Some p_recover, Some factor) ->
        Some (Gilbert { p_fail; p_recover; factor })
      | _ -> None)
    | _ -> None
  in
  let parts = String.split_on_char '+' str in
  let specs = List.map parse_one parts in
  if List.exists (fun s -> s = None) specs then fail ()
  else begin
    let specs = List.filter_map Fun.id specs in
    let merged =
      match specs with
      | [ s ] -> Some s
      | _ ->
        (* several '+'-joined windows merge into one Windows spec *)
        let windows =
          List.concat_map (function Windows ws -> ws | _ -> []) specs
        in
        if List.length windows = List.length specs then Some (Windows windows)
        else None
    in
    match merged with
    | None -> fail ()
    | Some s -> ( match validate s with () -> Ok s | exception Invalid_argument m -> Error m)
  end

let node_spec_of_string s =
  match String.index_opt s ':' with
  | None -> Error (Printf.sprintf "expected NODE:SPEC, got %S" s)
  | Some i -> (
    let node = String.sub s 0 i in
    let spec = spec_of_string (String.sub s (i + 1) (String.length s - i - 1)) in
    match (int_of_string_opt node, spec) with
    | (None, _) -> Error (Printf.sprintf "bad node index %S" node)
    | (Some n, _) when n < 0 -> Error (Printf.sprintf "negative node index %d" n)
    | (Some n, spec) -> Result.map (fun spec -> (n, spec)) spec)
