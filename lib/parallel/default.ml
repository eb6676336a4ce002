(* One pool for the whole process, configured once at startup (CLI
   [--jobs] / [DELTANET_JOBS]) and consulted by every library hot path.
   The mutex only guards pool (re)configuration — the maps themselves
   are driven by whichever domain called in, which per the Pool contract
   must be one domain at a time; in this codebase that is always the
   main domain (workers reaching here are redirected to sequential
   execution by [Pool.in_worker]). *)

let lock = Mutex.create ()
let configured_jobs = ref 1
let pool : Pool.t option ref = ref None

let jobs_from_env () =
  match Sys.getenv_opt "DELTANET_JOBS" with
  | None | Some "" -> None
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n >= 0 -> Some n
    | Some _ | None -> None)

let resolve n = if n = 0 then Pool.recommended_jobs () else n

let set_jobs n =
  if n < 0 then invalid_arg "Parallel.Default.set_jobs: negative jobs";
  let n = resolve n in
  Mutex.lock lock;
  let old = !pool in
  pool := None;
  configured_jobs := n;
  Mutex.unlock lock;
  match old with Some p -> Pool.shutdown p | None -> ()

let jobs () = !configured_jobs

let get () =
  Mutex.lock lock;
  let p =
    match !pool with
    | Some p -> p
    | None ->
      let p = Pool.create ~jobs:!configured_jobs () in
      pool := Some p;
      p
  in
  Mutex.unlock lock;
  p

let map f xs = Pool.map (get ()) f xs
let map_list f xs = Pool.map_list (get ()) f xs
