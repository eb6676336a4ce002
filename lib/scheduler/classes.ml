(* ∆-scheduler matrices (Section III of the paper). *)

type matrix = { n : int; table : Delta.t array array }

let v ~n f =
  if n <= 0 then invalid_arg "Classes.v: non-positive size";
  let table = Array.init n (fun j -> Array.init n (fun k -> f j k)) in
  Array.iteri
    (fun j row ->
      if not (Delta.equal row.(j) (Delta.Fin 0.)) then
        invalid_arg "Classes.v: a locally FIFO scheduler needs delta j j = 0")
    table;
  { n; table }

let size m = m.n

let delta m j k =
  if j < 0 || j >= m.n || k < 0 || k >= m.n then invalid_arg "Classes.delta: out of range";
  m.table.(j).(k)

let fifo ~n = v ~n (fun _ _ -> Delta.Fin 0.)

let static_priority ~(priorities : int array) =
  let n = Array.length priorities in
  v ~n (fun j k ->
      if priorities.(k) < priorities.(j) then Delta.Neg_inf
      else if priorities.(k) = priorities.(j) then Delta.Fin 0.
      else Delta.Pos_inf)

let edf ~deadlines =
  let n = Array.length deadlines in
  Array.iter
    (fun d -> if d < 0. || Float.is_nan d then invalid_arg "Classes.edf: invalid deadline")
    deadlines;
  v ~n (fun j k -> if j = k then Delta.Fin 0. else Delta.fin (deadlines.(j) -. deadlines.(k)))

let bmux ~n ~tagged =
  if tagged < 0 || tagged >= n then invalid_arg "Classes.bmux: tagged flow out of range";
  v ~n (fun j k ->
      if j = k then Delta.Fin 0.
      else if j = tagged then Delta.Pos_inf
      else if k = tagged then Delta.Neg_inf
      else Delta.Fin 0.)

type two_class = Fifo | Bmux | Sp_through_high | Edf_gap of float

let delta_through_cross = function
  | Fifo -> Delta.Fin 0.
  | Bmux -> Delta.Pos_inf
  | Sp_through_high -> Delta.Neg_inf
  | Edf_gap g -> Delta.fin g
