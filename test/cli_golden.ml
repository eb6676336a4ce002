(* CLI golden: run the deltanet binary (argv.(1)) over a fixed set of
   argument lists and print, for each, the command, its stdout and its
   exit code.  stderr is discarded (messages may be reworded freely); the
   stdout bytes and the exit code are the contract.  The only filtered
   line is simulate's "engine:" summary, which carries wall-clock rates.

   dune diffs the output against cli_golden.expected; after an intended
   change, `dune promote` rewrites the expected file. *)

let cases =
  [
    (* bound *)
    [ "bound" ];
    [ "bound"; "-s"; "bmux" ];
    [ "bound"; "-s"; "sp" ];
    [ "bound"; "-H"; "5"; "--u0"; "0.15"; "--uc"; "0.35"; "-s"; "edf" ];
    [ "bound"; "-H"; "2"; "-s"; "edf"; "--edf-ratio"; "0.5" ];
    [ "bound"; "--metric"; "backlog" ];
    [ "bound"; "--metric"; "backlog"; "-s"; "bmux" ];
    [ "bound"; "--metric"; "backlog"; "-s"; "sp" ];
    [ "bound"; "--metric"; "backlog"; "-s"; "edf" ];
    [ "bound"; "-H"; "10"; "--u0"; "0.15"; "--uc"; "0.25"; "-s"; "edf" ];
    [ "bound"; "--metric"; "backlog"; "-H"; "10"; "--uc"; "0.25"; "-s"; "edf" ];
    [ "bound"; "-H"; "30"; "--metric"; "backlog"; "-s"; "fifo" ];
    [ "bound"; "-H"; "30"; "--metric"; "backlog"; "-s"; "sp" ];
    [ "bound"; "-H"; "30"; "--metric"; "backlog"; "-s"; "edf" ];
    [ "bound"; "--u0"; "0.6"; "--uc"; "0.4" ];
    [ "bound"; "--hops"; "0" ];
    [ "bound"; "--u0"; "nan" ];
    [ "bound"; "--metric"; "foo" ];
    [ "bound"; "-s"; "foo" ];
    [ "bound"; "--s-points"; "0" ];
    [ "bound"; "-s"; "edf"; "--edf-ratio"; "0" ];
    (* sweep *)
    [ "sweep"; "-H"; "2" ];
    [ "sweep"; "utilization"; "--u0"; "0.3"; "--s-points"; "8" ];
    [ "sweep"; "-H"; "10"; "--s-points"; "8" ];
    [ "sweep"; "hops"; "--u0"; "0.1" ];
    [ "sweep"; "foo" ];
    [ "sweep"; "hops"; "--u0"; "0.6" ];
    (* simulate *)
    [ "simulate"; "-H"; "2"; "--slots"; "2000" ];
    [ "simulate"; "-H"; "3"; "--slots"; "2000"; "-s"; "edf"; "--edf-ratio"; "2" ];
    [ "simulate"; "-H"; "2"; "--slots"; "2000"; "-s"; "bmux"; "--engine"; "event" ];
    [ "simulate"; "-H"; "2"; "--slots"; "2000"; "-s"; "sp" ];
    [ "simulate"; "-H"; "3"; "--slots"; "3000"; "--uc"; "0.8"; "-s"; "edf" ];
    [ "simulate"; "-H"; "3"; "--slots"; "3000"; "--uc"; "0.8"; "-s"; "edf"; "--edf-ratio"; "0.5" ];
    [ "simulate"; "-H"; "3"; "--slots"; "3000"; "--uc"; "0.8"; "-s"; "sp"; "--engine"; "event" ];
    [ "simulate"; "-H"; "2"; "--slots"; "2000"; "--faults"; "0:const:0.8" ];
    [ "simulate"; "-H"; "2"; "--slots"; "2000"; "--cbr"; "5:2"; "--engine"; "event" ];
    [ "simulate"; "-H"; "3"; "--faults"; "5:const:0.5" ];
    [ "simulate"; "-H"; "3"; "--faults"; "1:const:0.5"; "--faults"; "1:const:0.6" ];
    [ "simulate"; "--faults=-1:const:0.5" ];
    [ "simulate"; "--faults"; "0:bogus" ];
    [ "simulate"; "--slots"; "0" ];
    [ "simulate"; "--cbr"; "0:1" ];
    (* replicate *)
    [ "replicate"; "-H"; "2"; "--slots"; "2000"; "--runs"; "3" ];
    [ "replicate"; "-H"; "2"; "--slots"; "1000"; "--runs"; "3"; "-s"; "edf";
      "--faults"; "1:gilbert:0.01:0.5:0.5" ];
    [ "replicate"; "-H"; "3"; "--slots"; "2000"; "--runs"; "4"; "--uc"; "0.8"; "-s"; "edf";
      "-q"; "0.9" ];
    [ "replicate"; "-H"; "3"; "--faults"; "5:const:0.5" ];
    [ "replicate"; "-H"; "3"; "--faults"; "1:const:0.5"; "--faults"; "1:window:0-10:0.2" ];
    (* schedulability *)
    [ "schedulability"; "10:5"; "20:10:inf"; "30:2:-inf"; "5:1:3" ];
    [ "schedulability"; "10:5"; "20:10:+inf" ];
    [ "schedulability"; "10:5"; "20:10:nan" ];
    [ "schedulability"; "10:x" ];
    [ "schedulability" ];
    [ "schedulability"; "60:5"; "50:5" ];
    [ "schedulability"; "-C"; "0"; "10:5" ];
    (* scaling *)
    [ "scaling" ];
    [ "scaling"; "--sim-slots"; "500" ];
    [ "scaling"; "--sim-slots"; "500"; "--engine"; "event" ];
    (* admission *)
    [ "admission" ];
    [ "admission"; "-H"; "2"; "-d"; "100"; "--edf-ratio"; "2" ];
    [ "admission"; "--u0"; "2" ];
    (* check *)
    [ "check" ];
    [ "check"; "--matrix"; "0,5,8;-5,0,4;-8,-4,0" ];
    [ "check"; "--matrix"; "0,nan;0,0" ];
    [ "check"; "--matrix"; "0,inf;-inf,0"; "--matrix"; "0,+inf,0;-inf,0,0;0,0,0" ];
    [ "check"; "--matrix"; "zebra" ];
    [ "check"; "--matrix"; "0,1;0" ];
    [ "check"; "--envelope"; "0:0:1,2:2:5" ];
    [ "check"; "--envelope"; "0:1:2,5:11:1" ];
    [ "check"; "--envelope"; "0:0" ];
    [ "check"; "--u0"; "0.6"; "--uc"; "0.5" ];
    [ "check"; "-H"; "0" ];
    (* loadgen *)
    [ "loadgen"; "-n"; "20"; "--shapes"; "5"; "--seed"; "7" ];
    [ "loadgen"; "-n"; "10"; "-s"; "edf"; "--malformed"; "0.3" ];
    [ "loadgen"; "-n"; "4"; "-s"; "sp" ];
    [ "loadgen"; "-n"; "4"; "-s"; "bmux" ];
    [ "loadgen"; "-n"; "3"; "--deadline"; "nan" ];
    [ "--version" ];
  ]

let read_all fd =
  let buf = Buffer.create 4096 and chunk = Bytes.create 4096 in
  let rec go () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> Buffer.contents buf
    | n ->
      Buffer.add_subbytes buf chunk 0 n;
      go ()
  in
  go ()

let run cli args =
  let (out_r, out_w) = Unix.pipe ~cloexec:true () in
  let null_in = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  let null_out = Unix.openfile "/dev/null" [ Unix.O_WRONLY; Unix.O_CLOEXEC ] 0 in
  let pid =
    Unix.create_process cli (Array.of_list (cli :: args)) null_in out_w null_out
  in
  List.iter Unix.close [ out_w; null_in; null_out ];
  let out = read_all out_r in
  Unix.close out_r;
  let code =
    match snd (Unix.waitpid [] pid) with
    | Unix.WEXITED c -> c
    | Unix.WSIGNALED s | Unix.WSTOPPED s -> 1000 + s
  in
  (out, code)

let () =
  let cli = Sys.argv.(1) in
  List.iter
    (fun args ->
      let (out, code) = run cli args in
      let out =
        match args with
        | "simulate" :: _ ->
          String.split_on_char '\n' out
          |> List.filter (fun l -> not (String.starts_with ~prefix:"engine: " l))
          |> String.concat "\n"
        | _ -> out
      in
      Printf.printf "$ deltanet %s\n%s[exit %d]\n\n" (String.concat " " args) out code)
    cases
