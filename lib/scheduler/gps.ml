(* Fluid GPS allocation by water-filling. *)

type t = { weights : float array }

let v ~weights =
  if Array.length weights = 0 then invalid_arg "Gps.v: empty weights";
  Array.iter (fun w -> if w <= 0. then invalid_arg "Gps.v: non-positive weight") weights;
  { weights }

let allocate t ~capacity ~backlogs =
  let n = Array.length backlogs in
  if n <> Array.length t.weights then invalid_arg "Gps.allocate: arity mismatch";
  let grant = Array.make n 0. in
  let remaining = Array.copy backlogs in
  let rec fill cap =
    if cap <= 1e-12 then ()
    else begin
      let active_weight = ref 0. in
      Array.iteri (fun i r -> if r > 1e-12 then active_weight := !active_weight +. t.weights.(i)) remaining;
      if !active_weight <= 0. then ()
      else begin
        (* Proportional share; classes that saturate return their leftover. *)
        let used = ref 0. in
        let saturated = ref false in
        Array.iteri
          (fun i r ->
            if r > 1e-12 then begin
              let share = cap *. t.weights.(i) /. !active_weight in
              let got = Float.min share r in
              grant.(i) <- grant.(i) +. got;
              remaining.(i) <- r -. got;
              used := !used +. got;
              if got < share -. 1e-12 then saturated := true
            end)
          remaining;
        if !saturated then fill (cap -. !used)
      end
    end
  in
  fill capacity;
  grant
