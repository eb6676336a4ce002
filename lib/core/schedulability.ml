(* Theorem 2: tight schedulability conditions. *)

module Curve = Minplus.Curve

type flow = { envelope : Minplus.Curve.t; delta : Scheduler.Delta.t }

let flow_of_string s =
  let bad = Error (Printf.sprintf "expected RATE:BURST[:DELTA], got %S" s) in
  let leaky r b delta =
    match (float_of_string_opt r, float_of_string_opt b, delta) with
    | (_, _, Ok (Scheduler.Delta.Fin d)) when Float.is_nan d -> bad
    | (Some rate, Some burst, Ok delta) when rate >= 0. && burst >= 0. ->
      Ok { envelope = Minplus.Curve.affine ~rate ~burst; delta }
    | _ -> bad
  in
  match String.split_on_char ':' s with
  | [ r; b ] -> leaky r b (Ok Scheduler.Delta.zero)
  | [ r; b; d ] -> leaky r b (Scheduler.Delta.of_string d)
  | _ -> bad

(* sum_{k in N_j} E_k (t +. ∆_{j,k}(d)) as a curve in t. *)
let shifted_sum ~delay flows =
  let shifted =
    List.filter_map
      (fun { envelope; delta } ->
        match Scheduler.Delta.clip_fin delta delay with
        | None -> None
        | Some c ->
          if c >= 0. then Some (Curve.lshift c envelope)
          else Some (Curve.hshift (-.c) envelope))
      flows
  in
  match shifted with
  | [] -> Curve.zero
  | c :: rest -> List.fold_left Curve.add c rest

let slack ~capacity ~delay flows =
  if capacity <= 0. then invalid_arg "Schedulability.slack: non-positive capacity";
  if delay < 0. then invalid_arg "Schedulability.slack: negative delay";
  let demand = shifted_sum ~delay flows in
  let sup =
    Minplus.Deviation.vertical ~arrival:demand ~service:(Curve.constant_rate capacity)
  in
  (capacity *. delay) -. sup

let check ~capacity ~delay flows = slack ~capacity ~delay flows >= -1e-9

let c_feasibility_checks = Telemetry.Counter.make "schedulability.feasibility_checks"

let min_delay ?(tol = 1e-9) ~capacity flows =
  Telemetry.span "schedulability.min_delay"
    ~attrs:[ ("flows", Telemetry.Int (List.length flows)) ]
  @@ fun () ->
  let ok d =
    if !Telemetry.on then Telemetry.Counter.incr c_feasibility_checks;
    check ~capacity ~delay:d flows
  in
  (* Bracket: grow the upper end geometrically; give up on overload. *)
  let rec bracket hi tries =
    if tries = 0 then None else if ok hi then Some hi else bracket (2. *. hi) (tries - 1)
  in
  match bracket 1. 80 with
  | None -> Float.infinity
  | Some hi ->
    let rec bisect lo hi =
      if hi -. lo <= tol *. (1. +. hi) then hi
      else
        let mid = 0.5 *. (lo +. hi) in
        if ok mid then bisect lo mid else bisect mid hi
    in
    bisect 0. hi

let fifo_min_delay ~capacity flows =
  let rates = List.fold_left (fun acc (r, _) -> acc +. r) 0. flows in
  let bursts = List.fold_left (fun acc (_, b) -> acc +. b) 0. flows in
  if rates > capacity then Float.infinity else bursts /. capacity

let sp_min_delay ~capacity ~tagged:(_, tagged_burst) ~higher =
  let r_high = List.fold_left (fun acc (r, _) -> acc +. r) 0. higher in
  let b_high = List.fold_left (fun acc (_, b) -> acc +. b) 0. higher in
  if r_high >= capacity then Float.infinity
  else (tagged_burst +. b_high) /. (capacity -. r_high)
