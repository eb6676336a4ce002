(* Log-log growth fits for the scaling claims. *)

let growth_exponent points =
  let pts = List.filter (fun (x, y) -> x > 0. && y > 0. && Float.is_finite y) points in
  let n = List.length pts in
  if n < 2 then invalid_arg "Scaling.growth_exponent: need at least two points";
  let lx = List.map (fun (x, _) -> log x) pts in
  let ly = List.map (fun (_, y) -> log y) pts in
  let mean xs = List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs) in
  let mx = mean lx and my = mean ly in
  let sxy =
    List.fold_left2 (fun acc x y -> acc +. ((x -. mx) *. (y -. my))) 0. lx ly
  in
  let sxx = List.fold_left (fun acc x -> acc +. ((x -. mx) ** 2.)) 0. lx in
  if Float.equal sxx 0. then invalid_arg "Scaling.growth_exponent: degenerate abscissae";
  sxy /. sxx

let default_hs = [ 2; 4; 8; 16; 32 ]

(* Per-H fan-out on the default pool.  Each H is independent, results
   come back in input order, and each bound's s and γ searches run on
   the worker that computes it, so the numbers are identical at every
   jobs setting. *)
let delay_growth ?(hs = default_hs) ~scheduler (sc : Scenario.t) =
  let points =
    Parallel.Default.map_list
      (fun h ->
        let sc_h = { sc with Scenario.h } in
        (float_of_int h, Scenario.delay_bound ~scheduler sc_h))
      hs
  in
  (points, growth_exponent points)

let additive_growth ?(hs = default_hs) (sc : Scenario.t) =
  let points =
    Parallel.Default.map_list
      (fun h ->
        let sc_h = { sc with Scenario.h } in
        (float_of_int h, Additive.delay_bound_scenario sc_h))
      hs
  in
  (points, growth_exponent points)
