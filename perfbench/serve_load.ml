(* Workload [serve]: a closed loop of admission requests against one
   in-process {!Serve.Engine}.  One client sends one request per
   [handle_batch] call and waits for the reply, as an admission controller
   does.  The stream is a hot shape set that fits the cache (memoized
   hits) with every [cold_every]-th request a never-seen shape; the cache
   holds the hot set plus [spare] entries, so every cold request misses,
   compiles, runs the full optimization and evicts an older cold entry.
   Hot shapes are requested round-robin in a seeded order, so between two
   requests of one hot shape at most [n_hot / cold_every + 1] cold shapes
   arrive — fewer than [spare], hence no hot shape is ever evicted and the
   hit/miss totals are exact.  Operation = one request. *)

module Engine = Serve.Engine
module Admission = Deltanet.Admission
module Scenario = Deltanet.Scenario
module Classes = Scheduler.Classes

let n_hot = 256
let spare = 16
let cold_every = 50

(* The protocol's default EDF deadline ratio; requests here omit the field. *)
let edf_ratio = 10.

type shape = {
  h : int;
  u0 : float;
  uc : float;
  deadline : float;
  sched : string;  (** fifo | bmux | sp | edf *)
}

let line s =
  Printf.sprintf "{\"op\":\"admit\",\"h\":%d,\"u0\":%.17g,\"uc\":%.17g,\"deadline\":%.17g,\"sched\":%S}"
    s.h s.u0 s.uc s.deadline s.sched

(* The engine's cache key ingredients; two shapes with equal keys would
   share a cache entry. *)
let key s =
  let gap =
    if String.equal s.sched "edf" then
      Printf.sprintf "%h" (s.deadline /. float_of_int s.h *. (1. -. edf_ratio))
    else ""
  in
  Printf.sprintf "%d|%s%s|%h|%h" s.h s.sched gap s.u0 s.uc

let scheds = [| "fifo"; "bmux"; "sp"; "edf" |]

(* Shape [i] of a set: its path length and scheduler are fixed by [i]
   (every combination of H = 1..10 and the four schedulers in turn), so
   the mix — and with it the work — is the same for every seed; the
   loads and the deadline are drawn.  Loads stay at or below 80% in
   total: every shape has a stable effective-bandwidth parameter and a
   converged bound, so hot entries memoize and no request is refused as
   unstable. *)
let shape rng ~grid i =
  let u x = if grid then Float.round (x *. 100.) /. 100. else x in
  let module R = Desim.Prng in
  let u0 = u (0.05 +. (0.25 *. R.float rng)) in
  let uc = u (0.05 +. ((0.80 -. u0 -. 0.05) *. R.float rng)) in
  {
    h = 1 + (i mod 10);
    u0;
    uc;
    deadline = (if grid then Float.round else Fun.id) (5. +. (195. *. R.float rng));
    sched = scheds.(i / 10 mod Array.length scheds);
  }

type inputs = {
  hot : shape array;  (** in round-robin order *)
  hot_lines : string array;
  cold : shape array;
  cold_lines : string array;
}

let inputs ~seed ~requests =
  let rng = Desim.Prng.create ~seed:(Int64.of_int seed) in
  let seen = Hashtbl.create 1024 in
  let rec fresh ~grid i =
    let s = shape rng ~grid i in
    if Hashtbl.mem seen (key s) then fresh ~grid i
    else begin
      Hashtbl.replace seen (key s) ();
      s
    end
  in
  let hot = Array.init n_hot (fresh ~grid:true) in
  (* seeded round-robin order (Fisher-Yates) *)
  for i = n_hot - 1 downto 1 do
    let j = Desim.Prng.int rng ~bound:(i + 1) in
    let t = hot.(i) in
    hot.(i) <- hot.(j);
    hot.(j) <- t
  done;
  let cold = Array.init (requests / cold_every) (fresh ~grid:false) in
  { hot; hot_lines = Array.map line hot; cold; cold_lines = Array.map line cold }

let config = { Engine.default_config with Engine.cache_entries = n_hot + spare }

let stat name resp =
  match Serve.Sjson.parse resp with
  | Ok j -> (
    match Option.bind (Serve.Sjson.member name j) Serve.Sjson.to_float with
    | Some v -> int_of_float v
    | None -> -1)
  | Error _ -> -1

(* What an admission controller pays before its first timed request: a
   fresh engine and its hot set compiled and memoized. *)
let setup inp =
  let eng = Engine.create config in
  let warm = Array.map (fun l -> Check.classify (Engine.handle_line eng l)) inp.hot_lines in
  (eng, warm)

(* The direct library call the engine's exact path must reproduce. *)
let direct s =
  let scheduler =
    match s.sched with
    | "bmux" -> Classes.Bmux
    | "sp" -> Classes.Sp_through_high
    | "edf" -> Classes.Edf_gap (s.deadline /. float_of_int s.h *. (1. -. edf_ratio))
    | _ -> Classes.Fifo
  in
  let base = Scenario.of_utilization ~h:s.h ~u_through:s.u0 ~u_cross:s.uc in
  let d =
    Admission.decide ~s_points:config.Engine.s_points
      { Admission.base; guarantee = { Admission.deadline = s.deadline; epsilon = base.Scenario.epsilon } }
      ~scheduler
  in
  {
    Check.bound = d.Admission.bound;
    admitted = Deltanet.Diag.ok d.Admission.diag && d.Admission.bound <= s.deadline;
    mode = "exact";
    cache_hit = false;
  }

type phase = {
  ms : float array;  (** per-request latency, raw *)
  hits : int;
  misses : int;
  hit_minor_words : float;
  failed : int;
  problems : string list;
  stats_hits : int;
  stats_misses : int;
  stats_served : int;
}

(* Every [verify_every]-th cold request is recomputed by a direct
   [Admission.decide] call after the timed phase and must agree bit for
   bit. *)
let verify_every = 16

(* Requests per timeline block: a reference slice follows every block. *)
let block_requests = 1024
let blocks ~requests = (requests + block_requests - 1) / block_requests
let block_of i = i / block_requests
let is_cold i = (i + 1) mod cold_every = 0

let run_phase ?(between = ignore) tl eng warm inp ~requests =
  let ms = Array.make requests 0. in
  let failed = ref 0 and problems = ref [] in
  let fail msg =
    incr failed;
    if List.length !problems < 5 then problems := msg :: !problems
  in
  let hits = ref 0 and misses = ref 0 in
  let hit_words = ref 0. in
  let to_verify = ref [] in
  let s0 = Engine.stats_response eng in
  let next_hot = ref 0 and next_cold = ref 0 in
  for i = 0 to requests - 1 do
    let cold = is_cold i in
    let l = if cold then inp.cold_lines.(!next_cold) else inp.hot_lines.(!next_hot) in
    let w0 = Gc.minor_words () in
    let t0 = Ledger.now () in
    let resp = Engine.handle_batch eng [ l ] in
    let dt = Ledger.ms_since t0 in
    let dw = Gc.minor_words () -. w0 in
    ms.(i) <- dt;
    (match (resp, cold) with
    | [ r ], true ->
      incr misses;
      (match Check.classify r with
      | Error e -> fail e
      | Ok d when d.Check.cache_hit -> fail ("cold request answered from cache: " ^ r)
      | Ok d -> if !next_cold mod verify_every = 0 then to_verify := (!next_cold, d) :: !to_verify);
      incr next_cold
    | [ r ], false ->
      hit_words := !hit_words +. dw;
      incr hits;
      (match (Check.classify r, warm.(!next_hot)) with
      | Error e, _ -> fail e
      | Ok d, Ok w ->
        if not (Check.same_decision d { w with Check.cache_hit = true }) then
          fail ("hot decision differs from its first answer: " ^ r)
      | Ok _, Error e -> fail ("hot shape failed at warm-up: " ^ e));
      next_hot := (!next_hot + 1) mod n_hot
    | _ -> fail "engine returned a response count other than one");
    if (i + 1) mod block_requests = 0 || i = requests - 1 then begin
      Ledger.cut tl;
      between ()
    end
  done;
  let s1 = Engine.stats_response eng in
  let diff name = stat name s1 - stat name s0 in
  ( {
      ms;
      hits = !hits;
      misses = !misses;
      hit_minor_words = !hit_words;
      failed = !failed;
      problems = List.rev !problems;
      stats_hits = diff "cache_hits";
      stats_misses = diff "cache_misses";
      stats_served = diff "served";
    },
    List.rev !to_verify )

(* Outside the timed phase: the sampled cold decisions against direct
   library calls; one message per disagreement. *)
let verify_cold inp sample =
  List.filter_map
    (fun (k, d) ->
      let want = direct inp.cold.(k) in
      if Check.same_decision d want then None
      else
        Some
          (Printf.sprintf "cold shape %d: engine bound %.17g, direct decide %.17g" k d.Check.bound
             want.Check.bound))
    sample
