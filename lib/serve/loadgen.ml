module Prng = Desim.Prng

type config = {
  requests : int;
  shapes : int;
  malformed : float;
  seed : int;
  deadline_ms : float;
  scheduler : Protocol.scheduler_kind;
}

let default_config =
  {
    requests = 1000;
    shapes = 50;
    malformed = 0.;
    seed = 1;
    deadline_ms = 50.;
    scheduler = Protocol.Fifo;
  }

let validate cfg =
  if
    cfg.requests < 0 || cfg.shapes < 1
    || not (cfg.malformed >= 0. && cfg.malformed <= 1.)
    || not (Float.is_finite cfg.deadline_ms && cfg.deadline_ms > 0.)
  then
    invalid_arg
      (Printf.sprintf
         "Serve.Loadgen: need requests >= 0, shapes >= 1, malformed in [0, 1] and a \
          finite deadline > 0 (got %d, %d, %g, %g)"
         cfg.requests cfg.shapes cfg.malformed cfg.deadline_ms)

(* Shape [i] has its own generator, so the pool is fixed by the seed
   whatever order the stream visits it in. *)
let shape ~seed i =
  let g = Prng.create ~seed:(Int64.of_int ((seed * 65_599) + i)) in
  let h = 2 + Prng.int g ~bound:9 in
  let u0 = 0.05 +. (0.25 *. Prng.float g) in
  let uc = 0.05 +. (0.5 *. Prng.float g) in
  (h, u0, uc)

let malformed_line k =
  match k mod 5 with
  | 0 -> "{\"op\":\"admit\",\"h\":5"
  | 1 -> "{\"op\":\"nonsense\"}"
  | 2 -> "{\"op\":\"admit\",\"h\":\"five\",\"u0\":0.1,\"uc\":0.1,\"deadline\":50}"
  | 3 -> "{\"op\":\"admit\",\"h\":5,\"u0\":1e999,\"uc\":0.1,\"deadline\":50}"
  | _ -> "not json at all"

(* One Bernoulli draw per line, then one shape draw per admit line: the
   order the pinned stream digests depend on. *)
let line cfg rng i =
  if Prng.bernoulli rng ~p:cfg.malformed then malformed_line i
  else begin
    let (h, u0, uc) = shape ~seed:cfg.seed (Prng.int rng ~bound:cfg.shapes) in
    Printf.sprintf
      "{\"op\":\"admit\",\"id\":\"r%d\",\"h\":%d,\"u0\":%.6f,\"uc\":%.6f,\"deadline\":%.17g,\"sched\":%S}"
      i h u0 uc cfg.deadline_ms
      (Scheduler.Kind.label cfg.scheduler)
  end

let iter cfg f =
  validate cfg;
  let rng = Prng.create ~seed:(Int64.of_int cfg.seed) in
  for i = 0 to cfg.requests - 1 do
    f (line cfg rng i)
  done
