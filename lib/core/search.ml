(* The one log-grid minimization behind every s and γ search. *)

type floor = Interval of (float -> float -> float) | Point of (float -> float)
type refine = Golden of int | Grid of int
type result = { arg : float; value : float; evals : int; nan : bool }

let grid_ratio ~points ~lo ~hi = (hi /. lo) ** (1. /. float_of_int (points - 1))

let log_spaced ~lo ~ratio ~points =
  if points < 1 then invalid_arg "Search.log_spaced: points must be >= 1";
  let xs = Array.make points lo in
  for i = 1 to points - 1 do
    xs.(i) <- xs.(i - 1) *. ratio
  done;
  xs

let last_point ~lo ~ratio ~points =
  if points < 1 then invalid_arg "Search.last_point: points must be >= 1";
  let x = ref lo in
  for _ = 2 to points do
    x := !x *. ratio
  done;
  !x
  [@@zero_alloc_check]

(* [f] over [grid], a point the floor rules out read as [infinity].  The
   running minimum starts at [cutoff] and moves on [v < m].  A skipped
   point's floor is above that minimum, so its value is NaN ([Interval]
   only, where index 0 is never skipped) or above the minimum: not even
   a tied one, and the fold reads the exhaustive scan's first argmin. *)
let scan floor ~cutoff grid f =
  let n = Array.length grid in
  let vals = Array.make n Float.infinity and m = ref cutoff in
  let eval i =
    let v = f grid.(i) in
    vals.(i) <- v;
    if v < !m then m := v
  in
  (match floor with
  | Interval fl ->
    let rec block i j =
      if i = j then eval i
      else if i < j && not (fl grid.(i) grid.(j) > !m) then begin
        let k = (i + j) / 2 in
        eval k;
        block i (k - 1);
        block (k + 1) j
      end
    in
    eval 0;
    if n > 1 then eval (n - 1);
    block 1 (n - 2)
  | Point fl ->
    let floors = Array.map fl grid in
    let order = Array.init n Fun.id in
    Array.stable_sort (fun i j -> Float.compare floors.(i) floors.(j)) order;
    Array.iter (fun i -> if not (floors.(i) > !m) then eval i) order);
  vals

(* the first strict minimum of [vals] from index [from], seeded *)
let fold grid vals ~from (arg, value) =
  let arg = ref arg and value = ref value in
  for i = from to Array.length grid - 1 do
    if vals.(i) < !value then begin
      arg := grid.(i);
      value := vals.(i)
    end
  done;
  (!arg, !value)

let golden_section f a b steps =
  let phi = (sqrt 5. -. 1.) /. 2. in
  let rec go a b n =
    if n = 0 then 0.5 *. (a +. b)
    else
      let x1 = b -. (phi *. (b -. a)) and x2 = a +. (phi *. (b -. a)) in
      if f x1 <= f x2 then go a x2 (n - 1) else go x1 b (n - 1)
  in
  go a b steps

(* [f] over a ring of its last 8 probes, matched by IEEE [=]: probes
   are positive and non-NaN, so equal values have equal bits, and the
   NaN keys of empty slots match nothing (under Float.equal a NaN probe
   would match them).  Golden-section probes cluster as the bracket
   shrinks, so a repeat is always a recent probe. *)
let memo8 f =
  let keys = Array.make 8 Float.nan and vals = Array.make 8 0. and next = ref 0 in
  fun x ->
    let i = ref 0 in
    while !i < 8 && not ((keys.(!i) = x) [@lint.allow "float-equal"]) do
      incr i
    done;
    if !i < 8 then vals.(!i)
    else begin
      let v = f x in
      keys.(!next) <- x;
      vals.(!next) <- v;
      next := (!next + 1) land 7;
      v
    end

let minimize ?floor ?refine ~points ~lo ~hi f =
  if points < 1 then invalid_arg "Search.minimize: points must be >= 1";
  let evals = ref 0 and saw_nan = ref false in
  let f x =
    incr evals;
    let v = f x in
    if Float.is_nan v then saw_nan := true;
    v
  in
  let ratio = grid_ratio ~points ~lo ~hi in
  let arg, value =
    match floor with
    | Some fl ->
      let grid = log_spaced ~lo ~ratio ~points in
      let vals = scan fl ~cutoff:Float.infinity grid f in
      fold grid vals ~from:1 (grid.(0), vals.(0))
    | None ->
      (* no arrays: allocating them on every floorless search (Additive's
         nested ones, the backlog bound's s-grid) raised the figures' peak
         RSS *)
      let best = ref (f lo) and arg = ref lo and g = ref lo in
      for _ = 2 to points do
        g := !g *. ratio;
        let v = f !g in
        if v < !best then begin
          best := v;
          arg := !g
        end
      done;
      (!arg, !best)
  in
  let a = Float.max lo (arg /. ratio) and b = Float.min hi (arg *. ratio) in
  let arg, value =
    match refine with
    | None -> (arg, value)
    | Some (Golden steps) ->
      let fm = memo8 f in
      let g = golden_section fm a b steps in
      let v = fm g in
      ((if v < value then g else arg), Float.min value v)
    | Some (Grid n) ->
      let grid = log_spaced ~lo:a ~ratio:(grid_ratio ~points:n ~lo:a ~hi:b) ~points:n in
      let vals =
        match floor with None -> Array.map f grid | Some fl -> scan fl ~cutoff:value grid f
      in
      fold grid vals ~from:0 (arg, value)
  in
  { arg; value; evals = !evals; nan = !saw_nan }
