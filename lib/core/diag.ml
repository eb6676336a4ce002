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
