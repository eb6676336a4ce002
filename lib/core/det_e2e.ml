(* Deterministic end-to-end bounds via min-plus convolution (gamma = 0). *)

let c_theta_evals = Telemetry.Counter.make "det_e2e.theta_evals"
let c_additive_nodes = Telemetry.Counter.make "det_e2e.additive_nodes"

type node = {
  capacity : float;
  cross_envelope : Minplus.Curve.t;
  delta : Scheduler.Delta.t;
}

let node_service nd ~theta =
  Service_curve.deterministic ~capacity:nd.capacity ~theta
    ~cross:[ (nd.cross_envelope, nd.delta) ]

let path_service ~nodes ~thetas =
  if nodes = [] then invalid_arg "Det_e2e.path_service: empty path";
  if List.length nodes <> List.length thetas then
    invalid_arg "Det_e2e.path_service: arity mismatch";
  let curves = List.map2 (fun nd theta -> node_service nd ~theta) nodes thetas in
  Minplus.Convolution.convolve_list curves

let delay_bound ~nodes ~through ~thetas =
  let service = path_service ~nodes ~thetas in
  Minplus.Deviation.horizontal ~arrival:through ~service

let additive_delay_bound ~nodes ~through =
  let rec go envelope total = function
    | [] -> total
    | nd :: rest ->
      if !Telemetry.on then Telemetry.Counter.incr c_additive_nodes;
      let service = node_service nd ~theta:0. in
      let d = Minplus.Deviation.horizontal ~arrival:envelope ~service in
      if not (Float.is_finite d) then Float.infinity
      else
        let out = Minplus.Convolution.deconvolve envelope service in
        go out (total +. d) rest
  in
  go through 0. nodes

let backlog_bound ~nodes ~through ~thetas =
  let service = path_service ~nodes ~thetas in
  Minplus.Deviation.vertical ~arrival:through ~service

let delay_bound_uniform_theta ?(theta_points = 64) ~nodes through =
  Telemetry.span "det_e2e.theta_search"
    ~attrs:
      [
        ("h", Telemetry.Int (List.length nodes));
        ("points", Telemetry.Int theta_points);
      ]
  @@ fun () ->
  let f theta =
    if !Telemetry.on then Telemetry.Counter.incr c_theta_evals;
    delay_bound ~nodes ~through ~thetas:(List.map (fun _ -> theta) nodes)
  in
  (* Bracket: a reasonable upper end for theta is the single-node FIFO-style
     horizon burst/(C - rates), scaled off the theta = 0 bound. *)
  let d0 = f 0. in
  let hi = Float.max 1. (if Float.is_finite d0 then 4. *. d0 else 1.) in
  (* a uniform grid up to [hi], folded in index order from [d0] *)
  let thetas =
    Array.init theta_points (fun i ->
        hi *. float_of_int (i + 1) /. float_of_int theta_points)
  in
  let vals = Array.map f thetas in
  let best = ref d0 in
  for i = 0 to theta_points - 1 do
    if vals.(i) < !best then best := vals.(i)
  done;
  !best
