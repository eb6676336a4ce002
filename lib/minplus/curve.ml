(* Piecewise-linear curves for the (min,+) network calculus.

   Internal representation: an array of pieces sorted by strictly increasing
   abscissa [x], the first at [0.].  Piece [{x; y; r}] covers [x, next_x)
   with value [y +. r *. (t -. x)]; the final piece extends to +inf.  An
   infinite value is encoded as [y = infinity, r = 0.].

   Some intermediate computations (difference of curves) produce
   non-monotone piece lists; those stay internal and are restored to
   non-decreasing curves before being exposed. *)

type piece = { x : float; y : float; r : float }

type t = piece array

let tol_default = 1e-9

let is_inf y = Float.equal y infinity

let value_at p t = if is_inf p.y then infinity else p.y +. (p.r *. (t -. p.x))
  [@@zero_alloc_check]

(* Drop colinear continuations and merge runs of infinite pieces.  (No
   truncation after an infinite piece: intermediate results of the curve
   algebra may be infinite outside a bounded support.) *)
let normalize (ps : piece list) : t =
  let rec merge acc = function
    | [] -> List.rev acc
    | p :: rest -> (
      match acc with
      | prev :: _
        when (not (is_inf prev.y)) && (not (is_inf p.y))
             && Float.abs (value_at prev p.x -. p.y) <= 1e-12 *. (1. +. Float.abs p.y)
             && Float.abs (prev.r -. p.r) <= 1e-12 *. (1. +. Float.abs prev.r) ->
        merge acc rest
      | prev :: _ when is_inf prev.y && is_inf p.y -> merge acc rest
      | _ -> merge (p :: acc) rest)
  in
  Array.of_list (merge [] ps)

(* [normalize] over the prefix [buf.(0 .. len - 1)] of a scratch buffer,
   with the same merge conditions, without the list round-trip. *)
let normalize_sub (buf : piece array) len : t =
  if len = 0 then [||]
  else begin
    (* entry cost: the result buffer for the merged prefix *)
    let out = (Array.make len buf.(0) [@lint.allow "zero-alloc"]) in
    let m = ref 1 in
    for i = 1 to len - 1 do
      let p = buf.(i) in
      let prev = out.(!m - 1) in
      if (not (is_inf prev.y)) && (not (is_inf p.y))
         && Float.abs (value_at prev p.x -. p.y) <= 1e-12 *. (1. +. Float.abs p.y)
         && Float.abs (prev.r -. p.r) <= 1e-12 *. (1. +. Float.abs prev.r)
      then ()
      else if is_inf prev.y && is_inf p.y then ()
      else begin
        out.(!m) <- p;
        incr m
      end
    done;
    if !m = len then out
    else (Array.sub out 0 !m [@lint.allow "zero-alloc"] (* shrink once at exit *))
  end
  [@@zero_alloc_check]

let check_shape ps =
  (match ps with
  | [] -> invalid_arg "Curve.v: empty piece list"
  | p0 :: _ -> if not (Float.equal p0.x 0.) then invalid_arg "Curve.v: first piece must start at 0.");
  let rec go = function
    | [] | [ _ ] -> ()
    | p :: (q :: _ as rest) ->
      if q.x <= p.x then invalid_arg "Curve.v: abscissae must be strictly increasing";
      if p.x < 0. then invalid_arg "Curve.v: negative abscissa";
      go rest
  in
  go ps;
  List.iter
    (fun p ->
      if is_inf p.y && not (Float.equal p.r 0.) then invalid_arg "Curve.v: infinite value needs zero slope";
      if Float.is_nan p.y || Float.is_nan p.r then invalid_arg "Curve.v: nan")
    ps

let check_monotone (ps : piece list) =
  let rec go = function
    | [] -> ()
    | p :: rest ->
      if not (is_inf p.y) && p.r < -1e-12 then invalid_arg "Curve.v: decreasing slope";
      (match rest with
      | q :: _ ->
        let endv = value_at p q.x in
        if q.y < endv -. (1e-9 *. (1. +. Float.abs endv)) then
          invalid_arg "Curve.v: downward jump"
      | [] -> ());
      go rest
  in
  go ps

let v triples =
  let ps = List.map (fun (x, y, r) -> { x; y; r }) triples in
  check_shape ps;
  check_monotone ps;
  normalize ps

let v_unsafe triples =
  let ps = List.map (fun (x, y, r) -> { x; y; r }) triples in
  check_shape ps;
  normalize ps

let of_string s =
  let piece t =
    match List.map float_of_string_opt (String.split_on_char ':' t) with
    | [ Some x; Some y; Some r ] -> Ok (x, y, r)
    | _ -> Error (Printf.sprintf "bad envelope piece %S (expected X:Y:R)" t)
  in
  let pieces = List.map piece (String.split_on_char ',' s) in
  match List.find_map (function Error e -> Some e | Ok _ -> None) pieces with
  | Some e -> Error e
  | None -> (
    try Ok (v_unsafe (List.filter_map Result.to_option pieces))
    with Invalid_argument msg -> Error msg)

let pieces (f : t) = Array.to_list f
let breakpoints (f : t) = Array.to_list f |> List.map (fun p -> p.x)

(* ------------------------------------------------------------------ *)
(* Constructors                                                        *)

let zero : t = [| { x = 0.; y = 0.; r = 0. } |]

let affine ~rate ~burst =
  if rate < 0. || burst < 0. then invalid_arg "Curve.affine: negative parameter";
  [| { x = 0.; y = burst; r = rate } |]

let constant_rate c =
  if c < 0. then invalid_arg "Curve.constant_rate: negative rate";
  [| { x = 0.; y = 0.; r = c } |]

let rate_latency ~rate ~latency =
  if rate < 0. || latency < 0. then invalid_arg "Curve.rate_latency: negative parameter";
  if Float.equal latency 0. then constant_rate rate
  else [| { x = 0.; y = 0.; r = 0. }; { x = latency; y = 0.; r = rate } |]

let delta d =
  if d < 0. then invalid_arg "Curve.delta: negative latency";
  if Float.equal d 0. then [| { x = 0.; y = 0.; r = 0. }; { x = Float.min_float; y = infinity; r = 0. } |]
  else [| { x = 0.; y = 0.; r = 0. }; { x = d; y = infinity; r = 0. } |]

let step ~at ~height =
  if at < 0. || height < 0. then invalid_arg "Curve.step: negative parameter";
  if Float.equal at 0. then [| { x = 0.; y = height; r = 0. } |]
  else [| { x = 0.; y = 0.; r = 0. }; { x = at; y = height; r = 0. } |]

(* ------------------------------------------------------------------ *)
(* Evaluation                                                          *)

let index_of (f : t) t =
  (* Largest i with f.(i).x <= t; requires t >= 0. *)
  let lo = ref 0 and hi = ref (Array.length f - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if f.(mid).x <= t then lo := mid else hi := mid - 1
  done;
  !lo
  [@@zero_alloc_check]

let eval (f : t) t = if t < 0. then 0. else value_at f.(index_of f t) t
  [@@zero_alloc_check]

let eval_left (f : t) t =
  if t <= 0. then 0.
  else
    let i = index_of f t in
    if Float.equal f.(i).x t && i > 0 then value_at f.(i - 1) t else value_at f.(i) t

let last (f : t) = f.(Array.length f - 1)
let ultimate_rate (f : t) = (last f).r
let ultimately_infinite (f : t) = is_inf (last f).y

let inverse (f : t) y =
  if y <= eval f 0. then 0.
  else
    let n = Array.length f in
    let rec go i =
      if i >= n then infinity
      else
        let p = f.(i) in
        if p.y >= y then p.x
        else
          let reach = if p.r > 0. then p.x +. ((y -. p.y) /. p.r) else infinity in
          let next_x = if i + 1 < n then f.(i + 1).x else infinity in
          if reach <= next_x then reach else go (i + 1)
    in
    go 0

(* ------------------------------------------------------------------ *)
(* Merged-breakpoint machinery                                         *)

(* Both piece arrays are sorted by strictly increasing [x], so the union of
   abscissae is a linear merge with adjacent dedup — the same sequence as
   [List.sort_uniq Float.compare (breakpoints f @ breakpoints g)], without
   building either list. *)
let merged_xs_arr (f : t) (g : t) =
  let nf = Array.length f and ng = Array.length g in
  (* entry cost: one scratch sized for the worst-case union *)
  let out = (Array.make (nf + ng) 0. [@lint.allow "zero-alloc"]) in
  let i = ref 0 and j = ref 0 and k = ref 0 in
  while !i < nf || !j < ng do
    let from_f =
      !j >= ng || (!i < nf && Float.compare f.(!i).x g.(!j).x <= 0)
    in
    let x = if from_f then f.(!i).x else g.(!j).x in
    if !k = 0 || Float.compare out.(!k - 1) x <> 0 then begin
      out.(!k) <- x;
      incr k
    end;
    if from_f then incr i else incr j
  done;
  if !k = nf + ng then out
  else (Array.sub out 0 !k [@lint.allow "zero-alloc"] (* shrink once at exit *))
  [@@zero_alloc_check]

let merged_xs (f : t) (g : t) = Array.to_list (merged_xs_arr f g)

(* Walk an index forward to the piece of [h] covering ascending abscissae:
   after the loop, [!i] equals [index_of h x]. *)
let advance (h : t) i x =
  let n = Array.length h in
  while !i + 1 < n && h.(!i + 1).x <= x do
    incr i
  done
  [@@zero_alloc_check]

(* Build the piece list of [combine f g] on each merged interval, adding the
   interior crossing point required by pointwise min/max.  [pick] selects the
   value and slope given the two local lines. *)
let pointwise2 ~(pick : (float * float) -> (float * float) -> float * float) (f : t) (g : t) : t =
  let xs = merged_xs_arr f g in
  let nxs = Array.length xs in
  (* At most two pieces per merged abscissa (the line, plus one interior
     crossing), emitted into a scratch buffer; the walking indices replace
     the per-abscissa binary search with the same resulting piece. *)
  let buf = Array.make (2 * nxs) { x = 0.; y = 0.; r = 0. } in
  let len = ref 0 in
  let emit x (y, r) =
    buf.(!len) <- { x; y; r };
    incr len
  in
  let fi = ref 0 and gi = ref 0 in
  for idx = 0 to nxs - 1 do
    let x = xs.(idx) in
    advance f fi x;
    advance g gi x;
    let pf = f.(!fi) and pg = g.(!gi) in
    let yf = value_at pf x and rf = if is_inf pf.y then 0. else pf.r in
    let yg = value_at pg x and rg = if is_inf pg.y then 0. else pg.r in
    emit x (pick (yf, rf) (yg, rg));
    (* Interior crossing of the two lines, if it falls strictly inside. *)
    let next = if idx + 1 < nxs then xs.(idx + 1) else infinity in
    if (not (is_inf yf)) && (not (is_inf yg)) && not (Float.equal rf rg) then begin
      let xc = x +. ((yg -. yf) /. (rf -. rg)) in
      if xc > x +. 1e-15 && xc < next -. 1e-15 then begin
        let yfc = yf +. (rf *. (xc -. x)) and ygc = yg +. (rg *. (xc -. x)) in
        emit xc (pick (yfc, rf) (ygc, rg))
      end
    end
  done;
  normalize_sub buf !len

(* Values within [eps] of each other (e.g. the two lines at a crossing
   point, which differ by rounding) must be treated as equal so the slope
   choice looks forward, not at noise. *)
let pick_eps yf yg =
  if is_inf yf || is_inf yg then 0.
  else 1e-12 *. (1. +. Float.abs yf +. Float.abs yg)

let min f g =
  pointwise2 f g ~pick:(fun (yf, rf) (yg, rg) ->
      let eps = pick_eps yf yg in
      if yf < yg -. eps then (yf, rf)
      else if yg < yf -. eps then (yg, rg)
      else (Float.min yf yg, Float.min rf rg))

let max f g =
  pointwise2 f g ~pick:(fun (yf, rf) (yg, rg) ->
      let eps = pick_eps yf yg in
      if yf > yg +. eps then (yf, rf)
      else if yg > yf +. eps then (yg, rg)
      else (Float.max yf yg, Float.max rf rg))

let token_buckets = function
  | [] -> invalid_arg "Curve.token_buckets: empty list"
  | (rate, burst) :: rest ->
    List.fold_left
      (fun acc (rate, burst) -> min acc (affine ~rate ~burst))
      (affine ~rate ~burst) rest

let add f g =
  pointwise2 f g ~pick:(fun (yf, rf) (yg, rg) ->
      if is_inf yf || is_inf yg then (infinity, 0.) else (yf +. yg, rf +. rg))

(* Raw (possibly non-monotone) pointwise difference, as a piece array. *)
let raw_sub (f : t) (g : t) : piece array =
  let xs = merged_xs_arr f g in
  let n = Array.length xs in
  let out = Array.make n { x = 0.; y = 0.; r = 0. } in
  let fi = ref 0 and gi = ref 0 in
  for k = 0 to n - 1 do
    let x = xs.(k) in
    advance f fi x;
    advance g gi x;
    let pf = f.(!fi) and pg = g.(!gi) in
    let yf = value_at pf x and yg = value_at pg x in
    let rf = if is_inf pf.y then 0. else pf.r
    and rg = if is_inf pg.y then 0. else pg.r in
    out.(k) <-
      (if is_inf yf then { x; y = infinity; r = 0. } else { x; y = yf -. yg; r = rf -. rg })
  done;
  out

(* Clip the prefix [ps.(0 .. len - 1)] at zero from below, adding crossing
   breakpoints; at most two pieces out per piece in. *)
let raw_clip_pos (ps : piece array) len : piece array * int =
  let out = Array.make (2 * Stdlib.max len 1) { x = 0.; y = 0.; r = 0. } in
  let m = ref 0 in
  let push p =
    out.(!m) <- p;
    incr m
  in
  for i = 0 to len - 1 do
    let p = ps.(i) in
    let next = if i + 1 < len then ps.(i + 1).x else infinity in
    if is_inf p.y then push { p with y = infinity; r = 0. }
    else begin
      let y_end = if is_inf next then (if p.r >= 0. then infinity else neg_infinity)
                  else value_at p next in
      if p.y >= 0. && y_end >= 0. then push p
      else if p.y <= 0. && y_end <= 0. then push { p with y = 0.; r = 0. }
      else begin
        let xc = p.x +. (-.p.y /. p.r) in
        if p.y < 0. then begin
          (* rises through zero at xc *)
          push { p with y = 0.; r = 0. };
          push { x = xc; y = 0.; r = p.r }
        end
        else begin
          (* falls through zero at xc *)
          push p;
          push { x = xc; y = 0.; r = 0. }
        end
      end
    end
  done;
  (out, !m)

(* Largest non-decreasing function below the prefix [arr.(0 .. n - 1)]:
   m(t) = inf_{u >= t} f(u).  Right-to-left sweep, collected backward into
   a scratch buffer and reversed in place. *)
let monotone_minorant (arr : piece array) n : piece array * int =
  let out = Array.make (2 * Stdlib.max n 1) { x = 0.; y = 0.; r = 0. } in
  let m = ref 0 in
  let push p =
    out.(!m) <- p;
    incr m
  in
  let minfuture = ref infinity in
  (* After processing piece i, [minfuture] holds inf over [x_i, inf). *)
  for i = n - 1 downto 0 do
    let p = arr.(i) in
    let next = if i + 1 < n then arr.(i + 1).x else infinity in
    let inf_right = !minfuture in
    if is_inf p.y then begin
      (if is_inf inf_right || i + 1 >= n then push { p with y = infinity; r = 0. }
       else push { p with y = inf_right; r = 0. });
      minfuture := Float.min inf_right infinity
    end
    else if p.r >= 0. then begin
      (* increasing piece: follow f until it exceeds inf_right, then flat *)
      let y_end = if is_inf next then infinity else value_at p next in
      if y_end <= inf_right then begin
        push p;
        minfuture := p.y
      end
      else if p.y >= inf_right then begin
        push { p with y = inf_right; r = 0. };
        minfuture := inf_right
      end
      else begin
        let xc = p.x +. ((inf_right -. p.y) /. p.r) in
        if xc < next then push { x = xc; y = inf_right; r = 0. };
        push p;
        minfuture := p.y
      end
    end
    else begin
      (* decreasing piece: min over [t, next) is the right-end value *)
      let y_end = if is_inf next then neg_infinity else value_at p next in
      let mn = Float.min y_end inf_right in
      push { p with y = mn; r = 0. };
      minfuture := mn
    end
  done;
  let len = !m in
  for k = 0 to (len / 2) - 1 do
    let tmp = out.(k) in
    out.(k) <- out.(len - 1 - k);
    out.(len - 1 - k) <- tmp
  done;
  (out, len)

let sub_clip f g =
  let raw = raw_sub f g in
  let (clipped, c_len) = raw_clip_pos raw (Array.length raw) in
  let (mono, m_len) = monotone_minorant clipped c_len in
  let (final, f_len) = raw_clip_pos mono m_len in
  normalize_sub final f_len

let scale k (f : t) =
  if Float.is_nan k then invalid_arg "Curve.scale: NaN factor";
  if k < 0. then invalid_arg "Curve.scale: negative factor";
  Array.map (fun p -> if is_inf p.y then p else { p with y = k *. p.y; r = k *. p.r }) f

let hshift d (f : t) =
  if Float.is_nan d then invalid_arg "Curve.hshift: NaN shift";
  if d < 0. then invalid_arg "Curve.hshift: negative shift";
  if Float.equal d 0. then f
  else begin
    let n = Array.length f in
    let buf = Array.make (n + 1) { x = 0.; y = 0.; r = 0. } in
    for i = 0 to n - 1 do
      let p = f.(i) in
      buf.(i + 1) <- { p with x = p.x +. d }
    done;
    normalize_sub buf (n + 1)
  end

let lshift c (f : t) =
  if Float.is_nan c then invalid_arg "Curve.lshift: NaN shift";
  if c < 0. then invalid_arg "Curve.lshift: negative shift";
  if Float.equal c 0. then f
  else begin
    let n = Array.length f in
    let i = index_of f c in
    let head =
      let p = f.(i) in
      if is_inf p.y then { x = 0.; y = infinity; r = 0. }
      else { x = 0.; y = value_at p c; r = p.r }
    in
    let buf = Array.make n { x = 0.; y = 0.; r = 0. } in
    buf.(0) <- head;
    let len = ref 1 in
    for j = 0 to n - 1 do
      let p = f.(j) in
      if p.x > c then begin
        buf.(!len) <- { p with x = p.x -. c };
        incr len
      end
    done;
    normalize_sub buf !len
  end

let gate theta (f : t) =
  if Float.is_nan theta then invalid_arg "Curve.gate: NaN threshold";
  if theta < 0. then invalid_arg "Curve.gate: negative threshold";
  if Float.equal theta 0. then f
  else begin
    let n = Array.length f in
    let at_theta =
      let i = index_of f theta in
      let p = f.(i) in
      if is_inf p.y then { x = theta; y = infinity; r = 0. }
      else { x = theta; y = value_at p theta; r = p.r }
    in
    let buf = Array.make (n + 1) { x = 0.; y = 0.; r = 0. } in
    buf.(0) <- { x = 0.; y = 0.; r = 0. };
    buf.(1) <- at_theta;
    let len = ref 2 in
    for j = 0 to n - 1 do
      let p = f.(j) in
      if p.x > theta then begin
        buf.(!len) <- p;
        incr len
      end
    done;
    normalize_sub buf !len
  end

(* ------------------------------------------------------------------ *)
(* Predicates                                                          *)

let is_convex ?(tol = tol_default) (f : t) =
  let ps = Array.to_list f in
  let rec go = function
    | [] | [ _ ] -> true
    | p :: (q :: _ as rest) ->
      if is_inf q.y then (match rest with [ _ ] -> true | _ -> false)
      else
        let cont = Float.abs (value_at p q.x -. q.y) <= tol *. (1. +. Float.abs q.y) in
        cont && p.r <= q.r +. tol && go rest
  in
  (match ps with [] -> true | p0 :: _ -> Float.equal p0.y 0. || is_inf p0.y || p0.y >= 0.) && go ps

let is_concave ?(tol = tol_default) (f : t) =
  let ps = Array.to_list f in
  let rec go = function
    | [] | [ _ ] -> true
    | p :: (q :: _ as rest) ->
      not (is_inf q.y)
      && Float.abs (value_at p q.x -. q.y) <= tol *. (1. +. Float.abs q.y)
      && p.r >= q.r -. tol
      && go rest
  in
  (not (ultimately_infinite f)) && go ps

let equal ?(tol = tol_default) f g =
  let xs = merged_xs f g in
  let close a b =
    (is_inf a && is_inf b) || Float.abs (a -. b) <= tol *. (1. +. Float.max (Float.abs a) (Float.abs b))
  in
  let ok_at t = close (eval f t) (eval g t) in
  let rec mids = function
    | x :: (x' :: _ as rest) -> ok_at ((x +. x') /. 2.) && mids rest
    | [ x ] -> ok_at (x +. 1.) && ok_at (x +. 10.)
    | [] -> true
  in
  List.for_all ok_at xs && mids xs
  && (close (ultimate_rate f) (ultimate_rate g) || ultimately_infinite f = ultimately_infinite g)

let pp ppf (f : t) =
  let pp_piece ppf p =
    if is_inf p.y then Fmt.pf ppf "[%g,∞)" p.x
    else Fmt.pf ppf "(%g: %g + %g·t)" p.x p.y p.r
  in
  Fmt.pf ppf "@[<h>%a@]" (Fmt.list ~sep:Fmt.sp pp_piece) (Array.to_list f)
