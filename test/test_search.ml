(* The one log-grid search, over scripted functions: its abscissae, its
   index-order fold, both refinements, and both certified prunings,
   which must return the floorless search's bits. *)

module Search = Deltanet.Search

let bit_eq a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
let same_float a b = bit_eq a b || (Float.is_nan a && Float.is_nan b)

let check_bitwise name a b =
  if not (bit_eq a b) then Alcotest.failf "%s: %.17g and %.17g differ bitwise" name a b

let test_log_spaced () =
  let lo = 1e-6 and ratio = 1.7 in
  let xs = Search.log_spaced ~lo ~ratio ~points:40 in
  Alcotest.(check int) "length" 40 (Array.length xs);
  (* exactly the repeated-multiplication sequence, not lo *. ratio ** k *)
  let g = ref lo in
  Array.iteri
    (fun i x ->
      check_bitwise (Printf.sprintf "abscissa %d" i) !g x;
      g := !g *. ratio)
    xs;
  Alcotest.check_raises "points < 1"
    (Invalid_argument "Search.log_spaced: points must be >= 1")
    (fun () -> ignore (Search.log_spaced ~lo ~ratio ~points:0))

(* [minimize] over a scripted [f]: the i-th grid call returns [vals.(i)],
   every golden probe returns [probe]; the calls are recorded in
   order. *)
let test_scripted_fold () =
  let points = 9 and lo = 1e-3 and hi = 10. in
  let grid = Search.log_spaced ~lo ~ratio:((hi /. lo) ** (1. /. 8.)) ~points in
  let run ?refine ?(probe = 3.) vals =
    let calls = ref [] in
    let f g =
      let i = List.length !calls in
      calls := g :: !calls;
      if i < points then vals.(i) else probe
    in
    let r = Search.minimize ?refine ~points ~lo ~hi f in
    Alcotest.(check int) "evals = calls" (List.length !calls) r.Search.evals;
    (r, Array.of_list (List.rev !calls))
  in
  let tied = [| 4.; 2.; 1.; 2.; 1.; 2.; 2.; 2.; 2. |] in
  let (r, calls) = run tied in
  check_bitwise "no refinement: the grid minimum" 1. r.Search.value;
  check_bitwise "a tie keeps the first index" grid.(2) r.Search.arg;
  Alcotest.(check int) "no refinement: no evaluation past the grid" points
    (Array.length calls);
  Array.iteri (fun i g -> check_bitwise (Printf.sprintf "grid call %d" i) grid.(i) g) calls;
  (* the golden bracket is one ratio either side of grid point 2, never
     around point 4 *)
  let (r, calls) = run ~refine:(Search.Golden 5) ~probe:0.5 tied in
  check_bitwise "golden probes can only lower the minimum" 0.5 r.Search.value;
  Alcotest.(check bool) "golden probes ran" true (Array.length calls > points);
  check_bitwise "the argmin is the last golden probe" calls.(Array.length calls - 1)
    r.Search.arg;
  Array.iteri
    (fun i g ->
      if i >= points then
        Alcotest.(check bool)
          (Printf.sprintf "probe %d = %g in [grid.(1), grid.(3)]" i g)
          true
          (grid.(1) <= g && g <= grid.(3)))
    calls;
  let (r, _) = run ~refine:(Search.Golden 5) ~probe:3. tied in
  check_bitwise "a golden probe above the minimum keeps the grid argmin" grid.(2)
    r.Search.arg;
  let (r, calls) = run ~refine:(Search.Grid 4) ~probe:0.5 tied in
  Alcotest.(check int) "grid refinement: 4 more calls" (points + 4) (Array.length calls);
  check_bitwise "grid refinement: its first point below the minimum" calls.(points)
    r.Search.arg;
  let (r, _) =
    run ~refine:(Search.Golden 5) ~probe:Float.infinity (Array.make points Float.infinity)
  in
  check_bitwise "an all-infinite search gives infinity" Float.infinity r.Search.value;
  check_bitwise "an all-infinite search stays at lo" lo r.Search.arg;
  let with_nan = Array.copy tied in
  with_nan.(0) <- Float.nan;
  List.iter
    (fun refine ->
      let (r, _) = run ?refine with_nan in
      Alcotest.(check bool) "NaN at index 0 propagates" true
        (Float.is_nan r.Search.value && r.Search.nan))
    [ None; Some (Search.Golden 5); Some (Search.Grid 4) ];
  let with_nan = Array.copy tied in
  with_nan.(5) <- Float.nan;
  let (r, _) = run with_nan in
  Alcotest.(check bool) "a NaN elsewhere never wins, and is reported" true
    (bit_eq r.Search.value 1. && r.Search.nan);
  Alcotest.check_raises "points < 1"
    (Invalid_argument "Search.minimize: points must be >= 1")
    (fun () -> ignore (Search.minimize ~points:0 ~lo ~hi Fun.id))

(* A scripted search: every grid abscissa maps to one of a few values
   (ties, infinity and NaN among them) and any other abscissa g, a
   refinement probe, to [probe *. g], so a refinement's answer depends
   on which grid point centres it.  The floors are the tightest the
   contracts admit, so the most points are skipped: [Interval] takes the
   minimum of the non-NaN grid values in [a, b] and of [probe *. a] (the
   off-grid infimum); [Point] is the value itself, [neg_infinity] at a
   NaN. *)
type scripted = {
  vals : float array;
  kind : [ `None | `Interval | `Point ];
  refine : Search.refine option;
  probe : float;
}

let lo = 1e-3
let hi = 10.

let scripted_arb =
  let value_gen = QCheck.Gen.oneofl [ 0.5; 1.; 2.; 3.; Float.infinity; Float.nan ] in
  let gen =
    QCheck.Gen.(
      int_range 1 12 >>= fun points ->
      array_repeat points value_gen >>= fun vals ->
      oneofl [ `None; `Interval; `Point ] >>= fun kind ->
      oneofl [ None; Some (Search.Golden 5); Some (Search.Grid 4) ] >>= fun refine ->
      oneofl [ 0.1; 1.5; 1e3 ] >>= fun probe -> return { vals; kind; refine; probe })
  in
  let print c =
    Fmt.str "%s refine=%s probe=%g vals=[%s]"
      (match c.kind with `None -> "floorless" | `Interval -> "interval" | `Point -> "point")
      (match c.refine with
      | None -> "none"
      | Some (Search.Golden n) -> Fmt.str "golden %d" n
      | Some (Search.Grid n) -> Fmt.str "grid %d" n)
      c.probe
      (String.concat "; " (Array.to_list (Array.map (Fmt.str "%g") c.vals)))
  in
  QCheck.make ~print gen

(* Runs [c] with floor kind [kind]: the result and the calls to f *)
let run_scripted c kind =
  let points = Array.length c.vals in
  let grid = Search.log_spaced ~lo ~ratio:(Search.grid_ratio ~points ~lo ~hi) ~points in
  let index g =
    let k = ref (-1) in
    Array.iteri (fun i x -> if bit_eq x g then k := i) grid;
    !k
  in
  let value g = match index g with -1 -> c.probe *. g | i -> c.vals.(i) in
  let calls = ref 0 in
  let f g =
    incr calls;
    value g
  in
  let floor =
    match kind with
    | `None -> None
    | `Interval ->
      Some
        (Search.Interval
           (fun a b ->
             let m = ref (c.probe *. a) in
             Array.iteri
               (fun i g -> if a <= g && g <= b && c.vals.(i) < !m then m := c.vals.(i))
               grid;
             !m))
    | `Point ->
      Some (Search.Point (fun g -> let v = value g in if Float.is_nan v then Float.neg_infinity else v))
  in
  let r = Search.minimize ?floor ?refine:c.refine ~points ~lo ~hi f in
  (r, !calls, grid)

let prop_pruned_equals_floorless =
  QCheck.Test.make ~name:"pruned search = floorless search on scripted values"
    ~count:(Qc.count 500 ~cap:20000) scripted_arb (fun c ->
      let (want, want_calls, _) = run_scripted c `None in
      let (got, got_calls, _) = run_scripted c c.kind in
      if not (same_float got.Search.value want.Search.value) then
        QCheck.Test.fail_reportf "value: pruned %h, floorless %h" got.Search.value
          want.Search.value;
      if not (bit_eq got.Search.arg want.Search.arg) then
        QCheck.Test.fail_reportf "arg: pruned %h, floorless %h" got.Search.arg want.Search.arg;
      (* an [Interval] floor may skip a NaN point, a [Point] floor never *)
      if c.kind <> `Interval && got.Search.nan <> want.Search.nan then
        QCheck.Test.fail_reportf "nan: pruned %b, floorless %b" got.Search.nan want.Search.nan;
      if got_calls > want_calls then
        QCheck.Test.fail_reportf "pruned %d calls, floorless %d" got_calls want_calls;
      true)

(* For every floor kind: [evals] is the number of calls to [f], and
   without a refinement [arg] is the grid point of the first index
   holding the minimum (index 0's NaN sticks; another NaN never
   wins). *)
let prop_first_argmin_and_evals =
  QCheck.Test.make ~name:"arg = first index of the minimum, evals = calls to f"
    ~count:(Qc.count 500 ~cap:20000) scripted_arb (fun c ->
      let (r, calls, grid) = run_scripted c c.kind in
      if r.Search.evals <> calls then
        QCheck.Test.fail_reportf "evals %d, calls %d" r.Search.evals calls;
      if c.refine = None then begin
        let best = ref 0 in
        Array.iteri (fun i v -> if v < c.vals.(!best) then best := i) c.vals;
        if not (bit_eq r.Search.arg grid.(!best)) then
          QCheck.Test.fail_reportf "arg %h, first argmin index %d at %h" r.Search.arg !best
            grid.(!best);
        if not (same_float r.Search.value c.vals.(!best)) then
          QCheck.Test.fail_reportf "value %h, want %h" r.Search.value c.vals.(!best)
      end;
      true)

(* The top grid point without the array: [last_point] is the last
   abscissa of [log_spaced] over any bracket, bit for bit. *)
let prop_last_point =
  QCheck.Test.make ~name:"last_point = log_spaced's last abscissa, bitwise"
    ~count:(Qc.count 500)
    QCheck.(
      make
        ~print:(fun (lo, span, points) -> Printf.sprintf "lo=%h span=%h points=%d" lo span points)
        Gen.(
          triple
            (map (fun e -> 10. ** e) (float_range (-300.) 300.))
            (map (fun e -> 10. ** e) (float_range (-6.) 30.))
            (int_range 1 64)))
    (fun (lo, span, points) ->
      let hi = lo *. (1. +. span) in
      let ratio = Search.grid_ratio ~points ~lo ~hi in
      let want = (Search.log_spaced ~lo ~ratio ~points).(points - 1) in
      let got = Search.last_point ~lo ~ratio ~points in
      if not (same_float got want) then
        QCheck.Test.fail_reportf "last_point %h, log_spaced %h (ratio %h)" got want ratio;
      true)

let suite =
  [
    Alcotest.test_case "log_spaced abscissae match sequential" `Quick test_log_spaced;
    Alcotest.test_case "scripted fold" `Quick test_scripted_fold;
    QCheck_alcotest.to_alcotest prop_pruned_equals_floorless;
    QCheck_alcotest.to_alcotest prop_first_argmin_and_evals;
    QCheck_alcotest.to_alcotest prop_last_point;
  ]
