(* Admission-time domain contracts: ∆ matrix well-formedness (Section III),
   Theorem-2 envelope concavity, and stability of the offered load. *)

module Curve = Minplus.Curve
module Delta = Scheduler.Delta
module Classes = Scheduler.Classes

type finding =
  | Delta_diag_nonzero of { j : int }
  | Delta_nan of { j : int; k : int }
  | Delta_asymmetric of { j : int; k : int }
  | Delta_inconsistent of { i : int; j : int; k : int }
  | Sp_entry_invalid of { j : int; k : int }
  | Sp_intransitive of { i : int; j : int; k : int }
  | Envelope_non_concave of { label : string; at : float }
  | Envelope_negative of { label : string; at : float }
  | Unstable of { offered : float; capacity : float }
  | Guarantee_invalid of { what : string; value : float }

let code = function
  | Delta_diag_nonzero _ -> "delta-diag-nonzero"
  | Delta_nan _ -> "delta-nan"
  | Delta_asymmetric _ -> "delta-asymmetric"
  | Delta_inconsistent _ -> "delta-inconsistent"
  | Sp_entry_invalid _ -> "sp-entry-invalid"
  | Sp_intransitive _ -> "sp-intransitive"
  | Envelope_non_concave _ -> "envelope-non-concave"
  | Envelope_negative _ -> "envelope-negative"
  | Unstable _ -> "unstable"
  | Guarantee_invalid _ -> "guarantee-invalid"

let pp_finding ppf f =
  match f with
  | Delta_diag_nonzero { j } ->
    Fmt.pf ppf "%s: delta(%d,%d) <> 0 — the scheduler is not locally FIFO" (code f) j j
  | Delta_nan { j; k } -> Fmt.pf ppf "%s: delta(%d,%d) is NaN" (code f) j k
  | Delta_asymmetric { j; k } ->
    Fmt.pf ppf "%s: delta(%d,%d) and delta(%d,%d) are not antisymmetric" (code f) j k k j
  | Delta_inconsistent { i; j; k } ->
    Fmt.pf ppf
      "%s: delta(%d,%d) <> delta(%d,%d) + delta(%d,%d) — no deadline vector realizes \
       this EDF matrix"
      (code f) i k i j j k
  | Sp_entry_invalid { j; k } ->
    Fmt.pf ppf "%s: delta(%d,%d) of a static-priority matrix is finite non-zero" (code f) j k
  | Sp_intransitive { i; j; k } ->
    Fmt.pf ppf "%s: precedence %d over %d over %d does not close over (%d,%d)" (code f) i j
      k i k
  | Envelope_non_concave { label; at } ->
    Fmt.pf ppf "%s: envelope %s fails the concavity chord test near t = %g" (code f) label
      at
  | Envelope_negative { label; at } ->
    Fmt.pf ppf "%s: envelope %s is negative at t = %g" (code f) label at
  | Unstable { offered; capacity } ->
    Fmt.pf ppf "%s: offered load %g >= capacity %g — no finite bound exists" (code f)
      offered capacity
  | Guarantee_invalid { what; value } ->
    Fmt.pf ppf "%s: guarantee %s %g is outside its valid range" (code f) what value

exception Violation of finding list

let () =
  Printexc.register_printer (function
    | Violation fs ->
      Some (Fmt.str "Contracts.Violation [@[%a@]]" (Fmt.list ~sep:Fmt.semi pp_finding) fs)
    | _ -> None)

let ensure = function [] -> () | findings -> raise (Violation findings)

let diag_of = function
  | [] -> Diag.v Diag.Converged
  | _ :: _ -> Diag.v Diag.Invalid

let c_checks = Telemetry.Counter.make "contracts.checks"
let c_findings = Telemetry.Counter.make "contracts.findings"

let tally findings =
  Telemetry.Counter.incr c_checks;
  Telemetry.Counter.add c_findings (List.length findings);
  findings

(* ---------------- ∆ matrices ---------------- *)

type matrix_kind = Auto | Edf | Sp

let is_zero = function Delta.Fin x -> Float.equal x 0. | _ -> false
let is_finite_entry = function Delta.Fin x -> not (Float.is_nan x) | _ -> false

let is_sp_entry = function
  | Delta.Neg_inf | Delta.Pos_inf -> true
  | Delta.Fin x -> Float.equal x 0.

let classify ~n entry =
  let all p =
    let ok = ref true in
    for j = 0 to n - 1 do
      for k = 0 to n - 1 do
        if j <> k && not (p (entry j k)) then ok := false
      done
    done;
    !ok
  in
  if all is_finite_entry then Edf else if all is_sp_entry then Sp else Auto

let check_matrix ?(kind = Auto) ?(tol = 1e-9) ~n entry =
  if n <= 0 then invalid_arg "Contracts.check_matrix: non-positive size";
  let out = ref [] in
  let add f = out := f :: !out in
  (* Generic well-formedness: locally FIFO diagonal, no NaN anywhere. *)
  for j = 0 to n - 1 do
    if not (is_zero (entry j j)) then add (Delta_diag_nonzero { j });
    for k = 0 to n - 1 do
      match entry j k with
      | Delta.Fin x when Float.is_nan x -> add (Delta_nan { j; k })
      | _ -> ()
    done
  done;
  let kind = match kind with Auto -> classify ~n entry | k -> k in
  let close a b = Float.abs (a -. b) <= tol *. (1. +. Float.abs a +. Float.abs b) in
  (match kind with
  | Edf ->
    (* A translation matrix delta(j,k) = d*_j - d*_k is antisymmetric and
       satisfies the triangle identity; check both on the finite entries. *)
    let d j k = match entry j k with Delta.Fin x -> x | Delta.Neg_inf | Delta.Pos_inf -> Float.nan in
    for j = 0 to n - 1 do
      for k = j + 1 to n - 1 do
        let a = d j k and b = d k j in
        if Float.is_finite a && Float.is_finite b && not (close a (-.b)) then
          add (Delta_asymmetric { j; k })
      done
    done;
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        for k = 0 to n - 1 do
          if i <> j && j <> k && i <> k then begin
            let lhs = d i k and rhs = d i j +. d j k in
            if Float.is_finite lhs && Float.is_finite rhs && not (close lhs rhs) then
              add (Delta_inconsistent { i; j; k })
          end
        done
      done
    done
  | Sp ->
    for j = 0 to n - 1 do
      for k = 0 to n - 1 do
        if j <> k && not (is_sp_entry (entry j k)) then add (Sp_entry_invalid { j; k })
      done
    done;
    (* The precedence relation must be antisymmetric ... *)
    for j = 0 to n - 1 do
      for k = j + 1 to n - 1 do
        (match (entry j k, entry k j) with
        | (Delta.Neg_inf, Delta.Pos_inf) | (Delta.Pos_inf, Delta.Neg_inf) -> ()
        | (Delta.Fin a, Delta.Fin b) when Float.equal a 0. && Float.equal b 0. -> ()
        | ((Delta.Neg_inf | Delta.Pos_inf | Delta.Fin _), _) ->
          add (Delta_asymmetric { j; k }))
      done
    done;
    (* ... and transitive: strict precedence i > j > k forces i > k. *)
    let precedes a b = match entry a b with Delta.Neg_inf -> true | _ -> false in
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        for k = 0 to n - 1 do
          if i <> j && j <> k && i <> k && precedes i j && precedes j k
             && not (precedes i k)
          then add (Sp_intransitive { i; j; k })
        done
      done
    done
  | Auto -> ());
  tally (List.rev !out)

let check_classes ?kind ?tol m =
  check_matrix ?kind ?tol ~n:(Classes.size m) (Classes.delta m)

(* ---------------- Theorem-2 envelopes ---------------- *)

let check_envelope ?(tol = 1e-9) ?(samples = 64) ~label (e : Curve.t) =
  let bps = Curve.breakpoints e in
  let far = (2. *. List.fold_left Float.max 0. bps) +. 1. in
  let grid =
    let uniform =
      List.init samples (fun i -> far *. float_of_int i /. float_of_int (samples - 1))
    in
    List.sort_uniq Float.compare (bps @ uniform)
  in
  let out = ref [] in
  (match List.find_opt (fun t -> Curve.eval e t < -.tol) grid with
  | Some t -> out := Envelope_negative { label; at = t } :: !out
  | None -> ());
  if not (Curve.is_concave ~tol e) then begin
    (* Locate a witness: an interior grid point strictly below the chord of
       its neighbours.  (The structural test above is authoritative; an
       ultimately-infinite envelope may have no finite witness, in which
       case the last breakpoint stands in.) *)
    let arr = Array.of_list grid in
    let witness = ref None in
    for i = 1 to Array.length arr - 2 do
      if !witness = None then begin
        let a = arr.(i - 1) and x = arr.(i) and b = arr.(i + 1) in
        let fa = Curve.eval e a and fx = Curve.eval e x and fb = Curve.eval e b in
        if Float.is_finite fa && Float.is_finite fb then begin
          let chord = ((fb -. fa) /. (b -. a) *. (x -. a)) +. fa in
          if fx < chord -. (tol *. (1. +. Float.abs chord)) then witness := Some x
        end
      end
    done;
    let at =
      match !witness with
      | Some x -> x
      | None -> List.fold_left Float.max 0. bps
    in
    out := Envelope_non_concave { label; at } :: !out
  end;
  tally (List.rev !out)

(* ---------------- stability ---------------- *)

let check_stability ~capacity ~offered =
  if Float.is_nan offered || Float.is_nan capacity || offered >= capacity then
    tally [ Unstable { offered; capacity } ]
  else tally []

let check_guarantee ~deadline ~epsilon =
  let out = ref [] in
  if not (Float.is_finite deadline) || deadline <= 0. then
    out := Guarantee_invalid { what = "deadline"; value = deadline } :: !out;
  if Float.is_nan epsilon || epsilon <= 0. || epsilon >= 1. then
    out := Guarantee_invalid { what = "epsilon"; value = epsilon } :: !out;
  tally (List.rev !out)

let check_scenario (t : Scenario.t) =
  let offered =
    (t.Scenario.n_through +. t.Scenario.n_cross)
    *. Envelope.Mmpp.mean_rate t.Scenario.source
  in
  check_stability ~capacity:t.Scenario.capacity ~offered

(* ---------------- pre-flight (deltanet check) ---------------- *)

type preflight = { checks : int; findings : (string * finding) list }

let preflight ~capacity ~offered ~matrices ~envelopes =
  let group label findings = List.map (fun f -> (label, f)) findings in
  let shipped =
    [
      ("fifo", Classes.fifo ~n:3);
      ("sp", Classes.static_priority ~priorities:[| 0; 1; 2 |]);
      ("bmux", Classes.bmux ~n:3 ~tagged:0);
      ("edf", Classes.edf ~deadlines:[| 10.; 20.; 30. |]);
    ]
  in
  let findings =
    group "scenario" (check_stability ~capacity ~offered)
    @ List.concat_map (fun (name, m) -> group name (check_classes m)) shipped
    @ List.concat
        (List.mapi
           (fun i m ->
             group (Fmt.str "matrix#%d" i)
               (check_matrix ~n:(Array.length m) (fun j k -> m.(j).(k))))
           matrices)
    @ List.concat
        (List.mapi
           (fun i e ->
             let label = Fmt.str "envelope#%d" i in
             group label (check_envelope ~label e))
           envelopes)
  in
  { checks = 1 + List.length shipped + List.length matrices + List.length envelopes; findings }
