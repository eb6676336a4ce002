(* Every cell of the paper's Figs. 2-4 at full precision.  The committed
   CSVs (and perfbench's golden check) hold six significant digits; this
   pins each cell's float bits, through the same [Perfbench.Figures.cell]
   the benchmark times, together with each EDF cell's fixed-point
   iteration count and their sum over the grid.  An exact optimization
   of the bound pipeline must leave figures_bits.expected as it is.

   figures_bits.expected holds one line per cell, "<csv> <row> <column>
   <value as %h> <iterations>", in the benchmark's pass order, then
   "iterations <sum>".

   The same pass, counted under the null sink, pins the searches' work:
   figures_work.expected holds "<counter> <value>" for each counter in
   [work_counters].  A change to the searched work, exact or not, shows
   there and must re-pin it on purpose. *)

let expected_file = "figures_bits.expected"
let work_file = "figures_work.expected"

let work_counters =
  [
    "span.scenario.s_grid.calls";
    "scenario.s_grid.evals";
    "scenario.s_grid.pruned";
    "e2e.gamma.evals";
    "e2e.gamma.floors";
    "e2e.eq38.objective_evals";
    "additive.gamma.evals";
    "additive.s_grid.evals";
  ]

let read_lines file =
  let ic = open_in file in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go acc =
        match input_line ic with l -> go (l :: acc) | exception End_of_file -> List.rev acc
      in
      go [])

let computed () =
  let total = ref 0 in
  let cells =
    List.concat_map
      (fun (f : Perfbench.Figures.fig) ->
        List.concat
          (List.mapi
             (fun r (_, _, sc) ->
               List.mapi
                 (fun c col ->
                   let v, it = Perfbench.Figures.cell sc col in
                   total := !total + it;
                   Printf.sprintf "%s %d %d %h %d" f.Perfbench.Figures.csv r c v it)
                 f.Perfbench.Figures.columns)
             f.Perfbench.Figures.rows))
      (Perfbench.Figures.figs ())
  in
  cells @ [ Printf.sprintf "iterations %d" !total ]

(* One pass: the cell lines and the work counter lines *)
let pass =
  lazy
    (Telemetry.reset ();
     Telemetry.configure ~sink:Telemetry.Sink.null ();
     Fun.protect ~finally:Telemetry.shutdown (fun () ->
         let cells = computed () in
         let counters = (Telemetry.snapshot ()).Telemetry.counters in
         let work =
           List.map
             (fun name ->
               Printf.sprintf "%s %d" name
                 (Option.value ~default:0 (List.assoc_opt name counters)))
             work_counters
         in
         (cells, work)))

let check_lines file got =
  let expected = read_lines file in
  Alcotest.(check int) "lines" (List.length expected) (List.length got);
  let diffs =
    List.filter_map
      (fun (e, g) -> if String.equal e g then None else Some (Printf.sprintf "want %s\n got %s" e g))
      (List.combine expected got)
  in
  match diffs with
  | [] -> ()
  | _ ->
    Alcotest.failf "%d of %d lines differ; the first:\n%s" (List.length diffs)
      (List.length expected)
      (String.concat "\n" (List.filteri (fun i _ -> i < 5) diffs))

let test_bits () = check_lines expected_file (fst (Lazy.force pass))
let test_work () = check_lines work_file (snd (Lazy.force pass))

let suite =
  [
    Alcotest.test_case "every figure cell, bit for bit" `Quick test_bits;
    Alcotest.test_case "the searches' work per pass" `Quick test_work;
  ]
