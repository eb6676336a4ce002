(* Fixed-size domain pool with deterministic chunked fan-out.

   Everything observable is a pure function of the input: chunk
   boundaries depend only on (input length, effective jobs), results are
   written to per-index slots, and the lowest failing index wins when
   tasks raise — exactly the index a sequential scan would have raised
   at.  Scheduling decides only who computes what, never what comes
   out. *)

exception Task_error of { index : int; exn : exn; backtrace : string }

let () =
  Printexc.register_printer (function
    | Task_error { index; exn; _ } ->
      Some
        (Printf.sprintf "Parallel.Pool.Task_error(task %d: %s)" index
           (Printexc.to_string exn))
    | _ -> None)

let recommended_jobs () = Domain.recommended_domain_count ()

(* Set on worker domains (permanently) and on the driving domain while it
   executes a chunk, so a nested [map] from inside a task degrades to
   sequential execution instead of re-entering the queue. *)
let in_worker_key : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)
let in_worker () = Domain.DLS.get in_worker_key

type t = {
  jobs : int;
  mutex : Mutex.t;
  work : Condition.t;  (* queue gained work, or stop was requested *)
  all_done : Condition.t;  (* remaining dropped to zero *)
  queue : (unit -> unit) Queue.t;
  mutable remaining : int;  (* chunks submitted but not yet finished *)
  mutable stop : bool;
  mutable closed : bool;
  mutable workers : unit Domain.t array;
}

let c_seq_maps = Telemetry.Counter.make "parallel.pool.maps_sequential"
let c_par_maps = Telemetry.Counter.make "parallel.pool.maps_parallel"
let c_tasks = Telemetry.Counter.make "parallel.pool.tasks"
let c_chunks = Telemetry.Counter.make "parallel.pool.chunks"
let h_chunk = Telemetry.Histogram.make "parallel.pool.chunk_tasks"
let h_busy = Telemetry.Histogram.make "parallel.pool.chunk_busy_ms"
let h_idle = Telemetry.Histogram.make "parallel.pool.drive_idle_ms"

(* Chunk jobs catch their own exceptions, so this can only be a task
   wrapper bug; don't let a worker die silently either way. *)
let run_job job =
  let prev = Domain.DLS.get in_worker_key in
  Domain.DLS.set in_worker_key true;
  Fun.protect ~finally:(fun () -> Domain.DLS.set in_worker_key prev) job

let rec worker_loop t =
  Mutex.lock t.mutex;
  while Queue.is_empty t.queue && not t.stop do
    Condition.wait t.work t.mutex
  done;
  if Queue.is_empty t.queue then Mutex.unlock t.mutex (* stop, queue drained *)
  else begin
    let job = Queue.pop t.queue in
    Mutex.unlock t.mutex;
    run_job job;
    Mutex.lock t.mutex;
    t.remaining <- t.remaining - 1;
    if t.remaining = 0 then Condition.broadcast t.all_done;
    Mutex.unlock t.mutex;
    worker_loop t
  end

let create ?jobs () =
  let jobs = match jobs with None -> recommended_jobs () | Some j -> j in
  if jobs < 1 then invalid_arg "Parallel.Pool.create: jobs must be >= 1";
  let t =
    {
      jobs;
      mutex = Mutex.create ();
      work = Condition.create ();
      all_done = Condition.create ();
      queue = Queue.create ();
      remaining = 0;
      stop = false;
      closed = false;
      workers = [||];
    }
  in
  if jobs > 1 then
    t.workers <- Array.init (jobs - 1) (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

let jobs t = t.jobs
let worker_count t = Array.length t.workers

let effective_jobs t = if t.jobs > 1 && not t.closed then t.jobs else 1

let shutdown t =
  if not t.closed then begin
    t.closed <- true;
    Mutex.lock t.mutex;
    t.stop <- true;
    Condition.broadcast t.work;
    Mutex.unlock t.mutex;
    Array.iter Domain.join t.workers;
    t.workers <- [||]
  end

let with_pool ?jobs f =
  let t = create ?jobs () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

(* ---------------- map ---------------- *)

(* Fatal/asynchronous exceptions keep their identity: callers (and the
   Replicate driver's retry logic) match on Sys.Break & co. directly. *)
let is_fatal = function
  | Out_of_memory | Stack_overflow | Sys.Break -> true
  | _ -> false

let run_task f xs i =
  match f xs.(i) with
  | v -> v
  | exception e when is_fatal e -> raise e
  | exception e ->
    raise (Task_error { index = i; exn = e; backtrace = Printexc.get_backtrace () })

let sequential_map f xs =
  let n = Array.length xs in
  if n = 0 then [||]
  else begin
    let r = Array.make n (run_task f xs 0) in
    for i = 1 to n - 1 do
      r.(i) <- run_task f xs i
    done;
    r
  end

(* The driving domain works alongside the pool: pop chunks while there are
   any, then sleep until the stragglers held by workers finish. *)
let drive t =
  Mutex.lock t.mutex;
  let rec go () =
    if not (Queue.is_empty t.queue) then begin
      let job = Queue.pop t.queue in
      Mutex.unlock t.mutex;
      run_job job;
      Mutex.lock t.mutex;
      t.remaining <- t.remaining - 1;
      go ()
    end
    else if t.remaining > 0 then begin
      if !Telemetry.on then begin
        let t0 = Telemetry.now () in
        Condition.wait t.all_done t.mutex;
        Telemetry.Histogram.observe h_idle ((Telemetry.now () -. t0) *. 1000.)
      end
      else Condition.wait t.all_done t.mutex;
      go ()
    end
  in
  go ();
  Mutex.unlock t.mutex

(* Deterministic contiguous chunking: chunk [p] of [pieces] covers
   [p*n/pieces, (p+1)*n/pieces) — a pure function of (n, pieces). *)
let chunk_bounds ~n ~pieces p = (p * n / pieces, (p + 1) * n / pieces)

let map t f xs =
  if t.closed then invalid_arg "Parallel.Pool.map: pool is shut down";
  let n = Array.length xs in
  let j = effective_jobs t in
  if n = 0 then [||]
  else if j = 1 || n = 1 || in_worker () then begin
    if !Telemetry.on then begin
      Telemetry.Counter.incr c_seq_maps;
      Telemetry.Counter.add c_tasks n
    end;
    sequential_map f xs
  end
  else begin
    (* More chunks than workers evens out non-uniform task costs (H=30
       bounds dwarf H=1) while staying steal-free and deterministic. *)
    let pieces = min n (4 * j) in
    if !Telemetry.on then begin
      Telemetry.Counter.incr c_par_maps;
      Telemetry.Counter.add c_tasks n;
      Telemetry.Counter.add c_chunks pieces
    end;
    let results = Array.make n None in
    (* one write-once slot per chunk; slot p can only hold an index from
       chunk p's range, so the lowest-p error is the lowest-index error *)
    let errors = Array.make pieces None in
    let chunk_job p () =
      let (lo, hi) = chunk_bounds ~n ~pieces p in
      let t0 = if !Telemetry.on then Telemetry.now () else 0. in
      let rec go i =
        if i < hi then
          match f xs.(i) with
          | v ->
            results.(i) <- Some v;
            go (i + 1)
          | exception e ->
            (* abort the rest of this chunk, like a sequential scan would *)
            errors.(p) <- Some (i, e, Printexc.get_backtrace ())
      in
      go lo;
      if !Telemetry.on then begin
        Telemetry.Histogram.observe h_chunk (float_of_int (hi - lo));
        Telemetry.Histogram.observe h_busy ((Telemetry.now () -. t0) *. 1000.)
      end
    in
    Mutex.lock t.mutex;
    for p = 0 to pieces - 1 do
      Queue.push (chunk_job p) t.queue
    done;
    t.remaining <- t.remaining + pieces;
    Condition.broadcast t.work;
    Mutex.unlock t.mutex;
    drive t;
    (* every chunk finished (synchronized through the pool mutex), so the
       slot arrays are safely visible here *)
    let first_error = ref None in
    for p = pieces - 1 downto 0 do
      match errors.(p) with Some _ as e -> first_error := e | None -> ()
    done;
    match !first_error with
    | Some (_, exn, _) when is_fatal exn -> raise exn
    | Some (index, exn, backtrace) -> raise (Task_error { index; exn; backtrace })
    | None ->
      Array.map (function Some v -> v | None -> assert false) results
  end

let map_list t f xs = Array.to_list (map t f (Array.of_list xs))
