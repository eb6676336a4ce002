(* deltanet-analyze — typed-tree analysis driver over .cmt files.

   Usage: deltanet_analyze [--rules] [--warn-unused-allow]
                           [--load-prefix DIR] PATH...
   Directories are walked recursively for .cmt files (including dune's
   dot-directories such as .foo.objs/byte).  Findings print one per line
   as "file:line rule message" — same format and exit codes as
   deltanet_lint: 1 when any finding is reported, 2 on usage errors,
   0 otherwise.

   Run it from the build-context root (the @analyze alias does), so the
   relative load paths recorded in the cmts resolve; from elsewhere, pass
   --load-prefix pointing at that root. *)

let rec cmt_files path =
  if Sys.is_directory path then
    Sys.readdir path |> Array.to_list |> List.sort String.compare
    |> List.concat_map (fun entry -> cmt_files (Filename.concat path entry))
  else if Filename.check_suffix path ".cmt" then [ path ]
  else []

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let warn_unused_allow = List.mem "--warn-unused-allow" args in
  let rec split prefixes rest = function
    | "--load-prefix" :: dir :: tl -> split (dir :: prefixes) rest tl
    | "--warn-unused-allow" :: tl -> split prefixes rest tl
    | a :: tl -> split prefixes (a :: rest) tl
    | [] -> (List.rev prefixes, List.rev rest)
  in
  let load_prefix, args = split [] [] args in
  match args with
  | [] | [ "--help" ] ->
    print_endline
      "usage: deltanet_analyze [--rules] [--warn-unused-allow] [--load-prefix \
       DIR] PATH...";
    print_endline
      "Analyzes .cmt files (recursing into directories); exits 1 on findings.";
    exit (if args = [] then 2 else 0)
  | [ "--rules" ] ->
    List.iter
      (fun (name, doc) -> Printf.printf "%-20s %s\n" name doc)
      Analysis.Engine.catalogue
  | paths ->
    let missing = List.filter (fun p -> not (Sys.file_exists p)) paths in
    if missing <> [] then begin
      List.iter
        (Printf.eprintf "deltanet_analyze: no such path: %s\n")
        missing;
      exit 2
    end;
    let files = List.concat_map cmt_files paths in
    let findings =
      Analysis.Engine.analyze_cmts ~warn_unused_allow ~load_prefix files
    in
    List.iter (fun f -> print_endline (Lint.Finding.to_string f)) findings;
    Printf.eprintf "deltanet_analyze: %d cmt(s), %d finding(s)\n"
      (List.length files) (List.length findings);
    exit (if findings = [] then 0 else 1)
