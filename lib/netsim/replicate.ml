(* Independent replications with confidence intervals, retries, deadlines
   and checkpoint/resume. *)

type failure = { index : int; attempts : int; reason : string }

type summary = {
  mean : float;
  half_width95 : float;
  values : float array;
  requested : int;
  completed : int;
  retried : int;
  resumed : int;
  failures : failure list;
}

(* The k-th retry of a replication reruns it under a fresh seed derived
   from the replication's own seed, so retries stay reproducible. *)
let retry_seed seed ~attempt =
  let rng = Desim.Prng.create ~seed in
  let s = ref (Desim.Prng.bits64 rng) in
  for _ = 2 to attempt do
    s := Desim.Prng.bits64 rng
  done;
  !s

let summarize ~requested ~retried ~resumed ~failures values =
  let acc = Desim.Stats.Online.create () in
  Array.iter (Desim.Stats.Online.add acc) values;
  let n = Array.length values in
  (* batch_means with one observation per batch gives the t-based CI *)
  let (_, half_width95) = Desim.Stats.batch_means values ~batches:n in
  {
    mean = Desim.Stats.Online.mean acc;
    half_width95;
    values;
    requested;
    completed = n;
    retried;
    resumed;
    failures;
  }

(* ---------------- checkpoint file ---------------- *)

(* Line-oriented text format, one completed replication per line:
     deltanet-replicate v<N> <base_seed> <runs>
     <index> <value>
   The file is replaced atomically after every completed wave: the full
   state (header + every completed replication, sorted by index) is
   written to <path>.tmp, fsynced, and renamed over <path>.  A kill at
   any instant therefore leaves either the previous complete checkpoint
   or the new one — never a torn line — and loses at most the wave in
   flight.  The rewrite is O(completed) per wave, which is noise next to
   the replications themselves.

   Because a correct writer can never produce a partial file, loading is
   strict: a missing trailing newline or a malformed line means the file
   was damaged (or written by something else) and is rejected instead of
   silently dropping data points from the summary.

   The schema version in the header is checked explicitly: a checkpoint
   written by a build with a different format is rejected with a version
   message instead of being silently misread (v1 files carried the same
   line layout but no versioning contract, so they are rejected too). *)

let checkpoint_version = 2

let checkpoint_header ~base_seed ~runs =
  Printf.sprintf "deltanet-replicate v%d %Ld %d" checkpoint_version base_seed runs

let check_checkpoint_header path header ~base_seed ~runs =
  match String.split_on_char ' ' (String.trim header) with
  | "deltanet-replicate" :: version :: rest -> (
    let v =
      if String.length version > 1 && version.[0] = 'v' then
        int_of_string_opt (String.sub version 1 (String.length version - 1))
      else None
    in
    match v with
    | None ->
      invalid_arg
        (Printf.sprintf
           "Replicate: checkpoint %s has a malformed schema version %S (expected v%d)"
           path version checkpoint_version)
    | Some v when v <> checkpoint_version ->
      invalid_arg
        (Printf.sprintf
           "Replicate: checkpoint %s uses schema v%d, but this build writes v%d — \
            rerun the sweep from scratch (delete the file) or use the matching build"
           path v checkpoint_version)
    | Some _ -> (
      match rest with
      | [ seed; runs_s ]
        when seed = Printf.sprintf "%Ld" base_seed
             && runs_s = string_of_int runs ->
        ()
      | _ ->
        invalid_arg
          (Printf.sprintf
             "Replicate: checkpoint %s does not match this sweep (found %S, expected %S)"
             path header
             (checkpoint_header ~base_seed ~runs))))
  | _ ->
    invalid_arg
      (Printf.sprintf
         "Replicate: %s is not a deltanet-replicate checkpoint (no schema header, \
          found %S)"
         path header)

let corrupt_line path ~line_no line =
  Printf.sprintf
    "Replicate: checkpoint %s line %d is corrupt (%S) — atomic rewrites never \
     leave partial lines, so the file is damaged; delete it to rerun the sweep \
     from scratch"
    path line_no line

let load_checkpoint path ~base_seed ~runs =
  let tbl = Hashtbl.create 16 in
  if Sys.file_exists path then begin
    let ic = open_in_bin path in
    let contents =
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    let len = String.length contents in
    (* an existing-but-empty file (e.g. one pre-created by mktemp) counts
       as a fresh sweep *)
    if len > 0 then begin
      if contents.[len - 1] <> '\n' then
        invalid_arg
          (Printf.sprintf
             "Replicate: checkpoint %s is truncated (no trailing newline); \
              delete it to rerun the sweep from scratch"
             path);
      match String.split_on_char '\n' (String.sub contents 0 (len - 1)) with
      | [] -> ()
      | header :: lines ->
        check_checkpoint_header path header ~base_seed ~runs;
        List.iteri
          (fun k line ->
            match String.split_on_char ' ' line with
            | [ idx; value ] -> (
              match (int_of_string_opt idx, float_of_string_opt value) with
              | (Some i, Some v) when i >= 0 && i < runs -> Hashtbl.replace tbl i v
              | _ -> invalid_arg (corrupt_line path ~line_no:(k + 2) line))
            | _ -> invalid_arg (corrupt_line path ~line_no:(k + 2) line))
          lines
    end
  end;
  tbl

(* Write-to-temp, fsync, rename: the checkpoint visible at [path] is
   always complete.  The temp file lives in the same directory so the
   rename stays within one filesystem (rename across devices is a copy,
   not atomic).  The directory fsync making the rename itself durable is
   best-effort: some filesystems refuse fsync on a directory fd, and the
   worst case without it is resuming one wave earlier. *)
let write_checkpoint path ~base_seed ~runs (results : float option array) =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  (try
     output_string oc (checkpoint_header ~base_seed ~runs);
     output_char oc '\n';
     Array.iteri
       (fun index -> function
         | Some v -> Printf.fprintf oc "%d %.17g\n" index v
         | None -> ())
       results;
     flush oc;
     Unix.fsync (Unix.descr_of_out_channel oc);
     close_out oc
   with e ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Unix.rename tmp path;
  match Unix.openfile (Filename.dirname path) [ Unix.O_RDONLY ] 0 with
  | dir ->
    (try Unix.fsync dir with Unix.Unix_error _ -> ());
    (try Unix.close dir with Unix.Unix_error _ -> ())
  | exception Unix.Unix_error _ -> ()

(* ---------------- the resilient driver ---------------- *)

let c_retries = Telemetry.Counter.make "netsim.replicate.retries"
let c_failures = Telemetry.Counter.make "netsim.replicate.failures"
let c_completed = Telemetry.Counter.make "netsim.replicate.completed"
let c_resumed = Telemetry.Counter.make "netsim.replicate.resumed"

(* One replication's complete fate: self-contained per index, so it can be
   computed on any domain.  All cross-run accumulation (retried totals,
   failure list, checkpoint writes) happens on the driving domain, in
   index order, from these records. *)
type outcome = { o_value : float option; o_retries : int; o_failure : failure option }

let statistic_ci ?jobs ?(max_retries = 0) ?max_wall ?checkpoint ~runs ~base_seed f =
  if runs < 2 then invalid_arg "Replicate: need at least two runs";
  if max_retries < 0 then invalid_arg "Replicate: negative max_retries";
  (match max_wall with
  | Some w when Float.is_nan w || w <= 0. ->
    invalid_arg "Replicate: max_wall must be positive"
  | _ -> ());
  (match jobs with
  | Some j when j < 1 -> invalid_arg "Replicate: jobs must be >= 1"
  | _ -> ());
  let with_pool k =
    match jobs with
    | None -> k (Parallel.Default.get ())
    | Some j -> Parallel.Pool.with_pool ~jobs:j k
  in
  with_pool @@ fun pool ->
  Telemetry.span "netsim.replicate.sweep"
    ~attrs:
      [
        ("runs", Telemetry.Int runs);
        ("jobs", Telemetry.Int (Parallel.Pool.effective_jobs pool));
      ]
  @@ fun () ->
  let seeds = Parallel.Seeds.derive ~base_seed runs in
  let done_ = match checkpoint with
    | None -> Hashtbl.create 0
    | Some path -> load_checkpoint path ~base_seed ~runs
  in
  let resumed = Hashtbl.length done_ in
  if resumed > 0 then begin
    Telemetry.Counter.add c_resumed resumed;
    Telemetry.event "replicate.resume" ~attrs:[ ("replications", Telemetry.Int resumed) ]
  end;
  (* Single-writer checkpointing: workers compute replications; only the
     driving domain rewrites the checkpoint, once per wave, from the full
     results array.  The file content is a pure function of the completed
     set, so it is byte-identical for every jobs setting. *)
  let writer : int = (Domain.self () :> int) in
  let save_checkpoint results =
    Option.iter
      (fun path -> write_checkpoint path ~base_seed ~runs results)
      checkpoint
  in
  (fun () ->
      let attempt_once ~seed =
        let t0 = Unix.gettimeofday () in
        match f ~seed with
        | v ->
          let elapsed = Unix.gettimeofday () -. t0 in
          (match max_wall with
          | Some w when elapsed > w ->
            Error (Printf.sprintf "wall deadline exceeded (%.3fs > %.3fs)" elapsed w, false)
          | _ ->
            if Float.is_finite v then Ok v
            else Error (Printf.sprintf "non-finite statistic (%g)" v, true))
        | exception ((Out_of_memory | Stack_overflow | Sys.Break) as e) -> raise e
        | exception e -> Error (Printexc.to_string e, true)
      in
      (* attempt 0 runs the replication's own seed; attempts 1..max_retries
         rerun it under fresh derived seeds.  A blown wall deadline is not
         retried: the rerun would almost surely blow it again.  Counters are
         atomic and events only stream when the pool is sequential, so this
         is safe on a worker domain. *)
      let rec run_one index ~attempt ~retries =
        let seed =
          if attempt = 0 then seeds.(index) else retry_seed seeds.(index) ~attempt
        in
        match attempt_once ~seed with
        | Ok v -> { o_value = Some v; o_retries = retries; o_failure = None }
        | Error (reason, retryable) ->
          if retryable && attempt < max_retries then begin
            Telemetry.Counter.incr c_retries;
            Telemetry.event "replicate.retry"
              ~attrs:
                [
                  ("index", Telemetry.Int index);
                  ("attempt", Telemetry.Int (attempt + 1));
                  ("reason", Telemetry.Str reason);
                ];
            run_one index ~attempt:(attempt + 1) ~retries:(retries + 1)
          end
          else begin
            Telemetry.Counter.incr c_failures;
            Telemetry.event "replicate.failure"
              ~attrs:
                [
                  ("index", Telemetry.Int index);
                  ("attempts", Telemetry.Int (attempt + 1));
                  ("reason", Telemetry.Str reason);
                ];
            {
              o_value = None;
              o_retries = retries;
              o_failure = Some { index; attempts = attempt + 1; reason };
            }
          end
      in
      let missing =
        List.filter
          (fun index -> not (Hashtbl.mem done_ index))
          (List.init runs Fun.id)
      in
      (* Waves bound how much completed work a kill can lose: each wave is
         computed in parallel, then its results are checkpointed before the
         next wave starts.  A sequential pool uses waves of one, keeping the
         historic flush-after-every-run durability. *)
      let wave_size =
        let ej = Parallel.Pool.effective_jobs pool in
        if ej = 1 then 1 else ej * 4
      in
      let results : float option array = Array.make runs None in
      Hashtbl.iter (fun i v -> results.(i) <- Some v) done_;
      let retried = ref 0 in
      let failures = ref [] in
      let rec waves = function
        | [] -> ()
        | pending ->
          let rec take k acc rest =
            match rest with
            | x :: tl when k > 0 -> take (k - 1) (x :: acc) tl
            | _ -> (List.rev acc, rest)
          in
          let (wave, rest) = take wave_size [] pending in
          let outcomes =
            Parallel.Pool.map pool
              (fun index -> run_one index ~attempt:0 ~retries:0)
              (Array.of_list wave)
          in
          assert ((Domain.self () :> int) = writer);
          List.iteri
            (fun k index ->
              let o = outcomes.(k) in
              retried := !retried + o.o_retries;
              (match o.o_failure with
              | Some failure -> failures := failure :: !failures
              | None -> ());
              match o.o_value with
              | Some v ->
                Telemetry.Counter.incr c_completed;
                results.(index) <- Some v
              | None -> ())
            wave;
          save_checkpoint results;
          waves rest
      in
      (* establish the header (and absorb a pre-created empty file) before
         any work, so even a sweep killed in its first wave leaves a
         well-formed checkpoint *)
      save_checkpoint results;
      waves missing;
      let values = ref [] in
      for index = runs - 1 downto 0 do
        match results.(index) with
        | Some v -> values := v :: !values
        | None -> ()
      done;
      let values = Array.of_list !values in
      let failures = List.rev !failures in
      if Array.length values < 2 then
        failwith
          (Printf.sprintf
             "Replicate: only %d of %d replications completed (%s)"
             (Array.length values) runs
             (match failures with
             | [] -> "no failures recorded"
             | { reason; _ } :: _ -> "first failure: " ^ reason))
      else summarize ~requested:runs ~retried:!retried ~resumed ~failures values)
    ()

let quantile_ci ?jobs ?max_retries ?max_wall ?checkpoint ~runs ~base_seed ~q f =
  statistic_ci ?jobs ?max_retries ?max_wall ?checkpoint ~runs ~base_seed (fun ~seed ->
      Desim.Stats.Sample.quantile (f ~seed) q)
