type config = {
  engine : Engine.config;
  batch : int;
  prom : string option;
  prom_interval : float;
}

let default_config =
  { engine = Engine.default_config; batch = 64; prom = None; prom_interval = 5. }

let validate cfg =
  if cfg.batch < 1 || not (Float.is_finite cfg.prom_interval && cfg.prom_interval > 0.) then
    invalid_arg
      (Printf.sprintf
         "Serve.Daemon: need batch >= 1 and a finite prom_interval > 0 (got %d, %g)"
         cfg.batch cfg.prom_interval)

let write_prom = function
  | None -> ()
  | Some path -> (
    try Telemetry.Prometheus.write_file path
    with Sys_error msg -> Fmt.epr "serve: prom snapshot write failed: %s@." msg)

let run ?(stop = Atomic.make false) ?(snapshot = Atomic.make false) cfg fd oc =
  validate cfg;
  let engine = Engine.create cfg.engine in
  let buf = Buffer.create 65_536 in
  let chunk = Bytes.create 65_536 in
  let eof = ref false in
  (* An unbounded line would grow [buf] without limit; once the trailing
     partial line passes the cap its prefix is discarded and the rest of
     that line, up to its newline, is dropped on extraction. *)
  let overlong_cap = 2 * cfg.engine.Engine.max_line_bytes in
  let drop_next_line = ref false in
  let respond rs =
    List.iter
      (fun r ->
        output_string oc r;
        output_char oc '\n')
      rs;
    flush oc
  in
  let answer lines = respond (Engine.handle_batch engine lines) in
  (* Answers the complete lines in [buf], [cfg.batch] at a time, and
     leaves the trailing partial line there. *)
  let answer_complete () =
    let s = Buffer.contents buf in
    let rec go start batch n =
      match String.index_from_opt s start '\n' with
      | None ->
        if n > 0 then answer (List.rev batch);
        Buffer.clear buf;
        Buffer.add_substring buf s start (String.length s - start)
      | Some i when !drop_next_line ->
        drop_next_line := false;
        go (i + 1) batch n
      | Some i ->
        let batch = String.sub s start (i - start) :: batch in
        if n + 1 < cfg.batch then go (i + 1) batch (n + 1)
        else begin
          answer (List.rev batch);
          go (i + 1) [] 0
        end
    in
    go 0 [] 0
  in
  (* Runs after [answer_complete], so [buf] holds only a partial line.  A
     line long enough to trip the cap may span many reads; the first trip
     answers it with one typed error, later trips discard silently — one
     line in, one response out. *)
  let guard_overlong () =
    if Buffer.length buf > overlong_cap then begin
      Buffer.clear buf;
      if not !drop_next_line then begin
        drop_next_line := true;
        respond
          [
            Protocol.render_error ~kind:Protocol.Invalid_request
              ~detail:"oversized request line discarded before parsing" ();
          ]
      end
    end
  in
  (* One select + read, then greedily everything already queued, so a
     backlog becomes one batch and the shed policy sees its real depth.
     A timeout or an EINTR (a signal raising a flag) returns to the loop,
     which polls its flags. *)
  let rec fill ~timeout =
    match Unix.select [ fd ] [] [] timeout with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | ([], _, _) -> ()
    | (_ :: _, _, _) -> (
      match Unix.read fd chunk 0 (Bytes.length chunk) with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | 0 -> eof := true
      | n ->
        Buffer.add_subbytes buf chunk 0 n;
        if Buffer.length buf <= overlong_cap then fill ~timeout:0.)
  in
  (* an immediate first snapshot, so scrapers find the file as soon as the
     daemon is up rather than one interval later *)
  write_prom cfg.prom;
  let last_prom = ref (Unix.gettimeofday ()) in
  while not (Atomic.get stop || !eof) do
    fill ~timeout:0.2;
    answer_complete ();
    guard_overlong ();
    let asked = Atomic.exchange snapshot false in
    if asked then Telemetry.flush ();
    if
      asked
      || Option.is_some cfg.prom
         && Unix.gettimeofday () -. !last_prom >= cfg.prom_interval
    then begin
      write_prom cfg.prom;
      last_prom := Unix.gettimeofday ()
    end
  done;
  answer_complete ();
  if Buffer.length buf > 0 && not !drop_next_line then answer [ Buffer.contents buf ];
  respond [ Engine.stats_response engine ];
  write_prom cfg.prom;
  Telemetry.flush ()
