(* Extended-real ∆ constants. *)

type t = Neg_inf | Fin of float | Pos_inf

let fin x =
  match Float.classify_float x with
  | FP_nan -> invalid_arg "Delta.fin: nan"
  | FP_infinite -> if x > 0. then Pos_inf else Neg_inf
  | FP_normal | FP_subnormal | FP_zero -> Fin x

let zero = Fin 0.

let clip d y =
  match d with
  | Neg_inf -> Neg_inf
  | Pos_inf -> Fin y
  | Fin x -> Fin (Float.min x y)

let clip_fin d y =
  match clip d y with Neg_inf -> None | Fin x -> Some x | Pos_inf -> assert false

let to_float = function Neg_inf -> neg_infinity | Pos_inf -> infinity | Fin x -> x
let compare a b = Float.compare (to_float a) (to_float b)
let equal a b = compare a b = 0

let pp ppf = function
  | Neg_inf -> Fmt.string ppf "-∞"
  | Pos_inf -> Fmt.string ppf "+∞"
  | Fin x -> Fmt.pf ppf "%g" x

let of_string s =
  match String.trim s with
  | "inf" | "+inf" -> Ok Pos_inf
  | "-inf" -> Ok Neg_inf
  | e -> (
    match float_of_string_opt e with
    | Some x when Float.is_nan x -> Ok (Fin x)
    | Some x -> Ok (fin x)
    | None -> Error (Printf.sprintf "bad delta entry %S (float, inf, -inf or nan)" e))

let matrix_of_string s =
  let rows = List.map (String.split_on_char ',') (String.split_on_char ';' s) in
  let n = List.length rows in
  if List.exists (fun r -> List.length r <> n) rows then
    Error (Printf.sprintf "matrix is not square (%d row(s))" n)
  else
    let entries = List.concat rows |> List.map of_string in
    match List.find_map (function Error e -> Some e | Ok _ -> None) entries with
    | Some e -> Error e
    | None ->
      let flat = Array.of_list (List.filter_map Result.to_option entries) in
      Ok (Array.init n (fun j -> Array.sub flat (j * n) n))
