(* The benchmark's own verdict helpers: percentile rules, the figure-CSV
   golden comparison, the serve response classifier and the work
   fingerprint.  Pure functions, so the unit tests can feed them fixtures
   that must fail. *)

(* ---------------- percentiles ---------------- *)

(* Nearest-rank percentile of an ascending array: the smallest value with
   at least [p]% of the samples at or below it.  Integer arithmetic on the
   rank keeps the rule exact (no float rounding at rank boundaries). *)
let rank ~n p = Stdlib.max 1 ((p * n + 99) / 100)

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Check.percentile: empty sample";
  if p < 1 || p > 100 then invalid_arg "Check.percentile: p outside [1, 100]";
  sorted.(rank ~n p - 1)

let median sorted = percentile sorted 50

type tail = { pct : int; value : float; beyond : int }

(* The tail percentile: the highest integer percentile, capped at p99,
   that leaves at least [min_beyond] samples above its rank.  Below p90 it
   is no longer a tail, so fewer than 10 * [min_beyond] samples give
   [None]. *)
let min_beyond = 10
let tail_floor = 90

let tail sorted =
  let n = Array.length sorted in
  let rec go p =
    if p < tail_floor then None
    else
      let beyond = n - rank ~n p in
      if beyond >= min_beyond then Some { pct = p; value = sorted.(rank ~n p - 1); beyond }
      else go (p - 1)
  in
  if n = 0 then None else go 99

(* ---------------- figure CSV golden ---------------- *)

(* Compare freshly rendered rows against the lines of a committed CSV
   (header first).  Returns one message per differing, missing or extra
   line; [] means byte-identical content. *)
let golden ~expected ~header ~rows =
  let got = header :: List.map Telemetry.Csv.row rows in
  let rec go i exp got acc =
    match (exp, got) with
    | [], [] -> List.rev acc
    | e :: exp', g :: got' ->
      let acc =
        if String.equal e g then acc
        else Printf.sprintf "line %d: expected %S, got %S" i e g :: acc
      in
      go (i + 1) exp' got' acc
    | e :: exp', [] -> go (i + 1) exp' [] (Printf.sprintf "line %d: missing %S" i e :: acc)
    | [], g :: got' -> go (i + 1) [] got' (Printf.sprintf "line %d: extra %S" i g :: acc)
  in
  go 1 expected got []

let read_lines path =
  In_channel.with_open_bin path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> not (String.equal l ""))

(* ---------------- serve responses ---------------- *)

type decision = { bound : float; admitted : bool; mode : string; cache_hit : bool }

(* A response either carries an exact admission decision or is a failed
   operation.  Degraded ([approx]), shed, timed-out and error replies all
   fail: the workload is sized so that none of them should occur. *)
let classify line =
  let module J = Serve.Sjson in
  match J.parse line with
  | Error msg -> Error ("unparseable response: " ^ msg)
  | Ok json ->
    let str k = Option.bind (J.member k json) J.to_string in
    let status = Option.value (str "status") ~default:"?" in
    if not (String.equal status "ok") then
      Error (Printf.sprintf "status %s: %s" status line)
    else
      match
        ( str "op",
          Option.bind (J.member "bound_ms" json) J.to_float,
          Option.bind (J.member "admit" json) J.to_bool,
          str "mode",
          str "cache" )
      with
      | Some "admit", Some bound, Some admitted, Some mode, Some cache ->
        if String.equal mode "exact" then
          Ok { bound; admitted; mode; cache_hit = String.equal cache "hit" }
        else Error (Printf.sprintf "degraded (%s) reply: %s" mode line)
      | _ -> Error ("not an admit decision: " ^ line)

(* Decision fields must agree bit for bit; elapsed time and trace ids are
   deliberately not compared. *)
let same_decision a b =
  Int64.equal (Int64.bits_of_float a.bound) (Int64.bits_of_float b.bound)
  && Bool.equal a.admitted b.admitted
  && String.equal a.mode b.mode
  && Bool.equal a.cache_hit b.cache_hit

(* ---------------- work fingerprint ---------------- *)

(* [(name, expected, measured)] triples; one message per mismatch. *)
let fingerprint items =
  List.filter_map
    (fun (name, expected, got) ->
      if expected = got then None
      else Some (Printf.sprintf "work fingerprint %s: expected %d, got %d" name expected got))
    items
