(* Typed convergence diagnostics and numeric guards. *)

type status = Converged | Unstable | Diverged | Non_finite | Invalid

type t = { status : status; iterations : int; tolerance : float }

type 'a outcome = { value : 'a; diag : t }

let v ?(iterations = 0) ?(tolerance = 0.) status = { status; iterations; tolerance }

let outcome ?iterations ?tolerance status value =
  { value; diag = v ?iterations ?tolerance status }

let ok d = match d.status with Converged -> true | _ -> false

let status_to_string = function
  | Converged -> "converged"
  | Unstable -> "unstable"
  | Diverged -> "diverged"
  | Non_finite -> "non-finite"
  | Invalid -> "invalid"

let note d = if ok d then "" else " (" ^ status_to_string d.status ^ ")"

let pp ppf d =
  Format.fprintf ppf "%s (%d iterations, tolerance %g)" (status_to_string d.status)
    d.iterations d.tolerance

module Guard = struct
  exception Tripped of string

  let fail what detail = raise (Tripped (Printf.sprintf "%s: %s" what detail))

  let not_nan ~what x =
    if Float.is_nan x then fail what "NaN" else x

  let finite ~what x =
    if Float.is_finite x then x else fail what (Printf.sprintf "non-finite value %g" x)

  let positive ~what x =
    if Float.is_nan x || x <= 0. then fail what (Printf.sprintf "non-positive value %g" x)
    else x

  let protect f = try Ok (f ()) with Tripped msg -> Error msg

  let status_of_value x =
    if Float.is_nan x then Non_finite
    else if Float.is_finite x then Converged
    else Unstable
end
