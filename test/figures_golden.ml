(* Every cell of the paper's Figs. 2-4, in one pass through the same
   [Perfbench.Figures.cell] the benchmark times, under the null sink.
   The pass writes five files into the working directory:

   - figures_bits.out: one line per cell, "<csv> <row> <column> <value
     as %h> <iterations>", in the benchmark's pass order, then
     "iterations <sum>" -- each cell's float bits and EDF fixed-point
     iteration count, which the six-digit CSVs cannot pin;
   - figures_work.out: "<counter> <value>" for each counter in
     [work_counters], the searches' work per pass;
   - fig2.out, fig3.out, fig4.out: each figure rendered as
     [header :: List.map Telemetry.Csv.row rows], the rendering
     perfbench's golden check compares.

   dune diffs them against test/figures_bits.expected,
   test/figures_work.expected and results/fig{2,3,4}.csv.  An exact
   optimization leaves all five as they are; after an intended output
   change, `dune promote` rewrites them. *)

module Figures = Perfbench.Figures

let work_counters =
  [
    "span.scenario.s_grid.calls";
    "scenario.s_grid.evals";
    "scenario.s_grid.pruned";
    "e2e.gamma.evals";
    "e2e.gamma.floors";
    "e2e.eq38.objective_evals";
    "e2e.eq38.node_steps";
    "additive.gamma.evals";
    "additive.s_grid.evals";
  ]

let write_lines file lines =
  let oc = open_out_bin file in
  List.iter
    (fun l ->
      output_string oc l;
      output_char oc '\n')
    lines;
  close_out oc

(* One figure: its %h cell lines and its CSV lines *)
let figure total (f : Figures.fig) =
  let bits, rows =
    List.split
      (List.mapi
         (fun r (a, b, sc) ->
           let cells =
             List.mapi
               (fun c col ->
                 let v, it = Figures.cell sc col in
                 total := !total + it;
                 (Printf.sprintf "%s %d %d %h %d" f.csv r c v it, v))
               f.columns
           in
           (List.map fst cells, a :: b :: List.map snd cells))
         f.rows)
  in
  (List.concat bits, f.header :: List.map Telemetry.Csv.row rows)

let () =
  (match Parallel.Default.jobs_from_env () with
  | Some n -> Parallel.Default.set_jobs n
  | None -> ());
  Telemetry.configure ~sink:Telemetry.Sink.null ();
  let total = ref 0 in
  let figs = List.map (fun f -> (f, figure total f)) (Figures.figs ()) in
  let counters = (Telemetry.snapshot ()).Telemetry.counters in
  Telemetry.shutdown ();
  write_lines "figures_bits.out"
    (List.concat_map (fun (_, (bits, _)) -> bits) figs
    @ [ Printf.sprintf "iterations %d" !total ]);
  write_lines "figures_work.out"
    (List.map
       (fun name ->
         Printf.sprintf "%s %d" name (Option.value ~default:0 (List.assoc_opt name counters)))
       work_counters);
  List.iter
    (fun ((f : Figures.fig), (_, csv)) ->
      write_lines (Filename.remove_extension (Filename.basename f.csv) ^ ".out") csv)
    figs
