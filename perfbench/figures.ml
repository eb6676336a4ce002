(* Workload [figures]: every cell of the paper's Figs. 2-4, as the paper
   defines them, computed through the library's public bound functions —
   the repository's headline output.  The seed is unused: the grid is the
   paper's.  Operation = one cell (one bound). *)

module Scenario = Deltanet.Scenario
module Additive = Deltanet.Additive
module Classes = Scheduler.Classes

let s_points = 16

type column = Bmux | Fifo | Edf of float | Add

type fig = {
  csv : string;  (** committed golden file *)
  header : string;
  columns : column list;
  rows : (float * float * Scenario.t) list;  (** the two coordinates and the scenario *)
}

let pct l = List.map (fun p -> (p, float_of_int p /. 100.)) l

(* The grids of bench/main.ml's fig2/fig3/fig4 sections, which wrote the
   committed CSVs. *)
let figs () =
  let fig2 =
    {
      csv = "results/fig2.csv";
      header = "h,u_percent,bmux_ms,fifo_ms,edf_ms";
      columns = [ Bmux; Fifo; Edf 10. ];
      rows =
        List.concat_map
          (fun h ->
            List.map
              (fun (p, u) ->
                ( float_of_int h,
                  float_of_int p,
                  Scenario.of_utilization ~h ~u_through:0.15 ~u_cross:(u -. 0.15) ))
              (pct [ 20; 30; 40; 50; 60; 70; 80; 90; 95 ]))
          [ 2; 5; 10 ];
    }
  in
  let fig3 =
    {
      csv = "results/fig3.csv";
      header = "h,mix_percent,bmux_ms,fifo_ms,edf_loose_ms,edf_tight_ms";
      columns = [ Bmux; Fifo; Edf 2.; Edf 0.5 ];
      rows =
        List.concat_map
          (fun h ->
            List.map
              (fun (p, mix) ->
                let u_cross = 0.5 *. mix in
                ( float_of_int h,
                  float_of_int p,
                  Scenario.of_utilization ~h ~u_through:(0.5 -. u_cross) ~u_cross ))
              (pct [ 10; 20; 30; 40; 50; 60; 70; 80; 90 ]))
          [ 2; 5; 10 ];
    }
  in
  let fig4 =
    {
      csv = "results/fig4.csv";
      header = "u_percent,h,bmux_ms,fifo_ms,edf_ms,additive_ms";
      columns = [ Bmux; Fifo; Edf 10.; Add ];
      rows =
        List.concat_map
          (fun u_pct ->
            let u = float_of_int u_pct /. 200. in
            List.map
              (fun h ->
                (float_of_int u_pct, float_of_int h, Scenario.of_utilization ~h ~u_through:u ~u_cross:u))
              [ 1; 2; 3; 4; 5; 6; 8; 10; 12; 15; 20; 25; 30 ])
          [ 10; 50; 90 ];
    }
  in
  [ fig2; fig3; fig4 ]

let cells_per_pass figs =
  List.fold_left (fun n f -> n + (List.length f.rows * List.length f.columns)) 0 figs

(* The layer each column's cell calls into. *)
type layer = Edf_fixed_point | Delay | Additive_bound

let layer = function
  | Bmux | Fifo -> Delay
  | Edf _ -> Edf_fixed_point
  | Add -> Additive_bound

(* One cell: the bound and the EDF fixed-point iteration count (0 for the
   other columns). *)
let cell sc = function
  | Bmux -> (Scenario.delay_bound ~s_points ~scheduler:Classes.Bmux sc, 0)
  | Fifo -> (Scenario.delay_bound ~s_points ~scheduler:Classes.Fifo sc, 0)
  | Edf ratio ->
    let o =
      Scenario.delay_bound_edf_checked ~s_points ~spec:{ Scenario.cross_over_through = ratio } sc
    in
    (o.Deltanet.Diag.value.Scenario.bound, o.Deltanet.Diag.value.Scenario.iterations)
  | Add -> (Additive.delay_bound_scenario ~s_points sc, 0)

type pass = {
  values : float array list;  (** per figure, row-major cell values *)
  iterations : int;
  ms : float array;  (** per-cell latency, raw *)
  blocks : int array;  (** per-cell timeline block *)
  layers : layer array;
}

(* One pass over every cell; a reference slice follows each cell, so each
   cell is its own timeline block.  [between] runs after each cell's
   slice, outside its timing. *)
let run_pass ?(between = ignore) tl figs =
  let n = cells_per_pass figs in
  let ms = Array.make n 0. and blocks = Array.make n 0 and layers = Array.make n Delay in
  let k = ref 0 and iters = ref 0 in
  let values =
    List.map
      (fun f ->
        let ncol = List.length f.columns in
        let v = Array.make (List.length f.rows * ncol) 0. in
        List.iteri
          (fun r (_, _, sc) ->
            List.iteri
              (fun c col ->
                let t0 = Ledger.now () in
                let b, it = cell sc col in
                ms.(!k) <- Ledger.ms_since t0;
                blocks.(!k) <- Ledger.block tl;
                layers.(!k) <- layer col;
                Ledger.cut tl;
                incr k;
                iters := !iters + it;
                v.((r * ncol) + c) <- b;
                between ())
              f.columns)
          f.rows;
        v)
      figs
  in
  { values; iterations = !iters; ms; blocks; layers }

(* Golden check: each pass's cells rendered like the committed CSVs.
   Returns the mismatch messages; each names one line. *)
let golden figs values =
  List.concat
    (List.map2
       (fun f v ->
         let ncol = List.length f.columns in
         let rows =
           List.mapi
             (fun r (a, b, _) -> a :: b :: List.init ncol (fun c -> v.((r * ncol) + c)))
             f.rows
         in
         let expected = try Check.read_lines f.csv with Sys_error e -> [ "unreadable: " ^ e ] in
         List.map (fun msg -> f.csv ^ " " ^ msg) (Check.golden ~expected ~header:f.header ~rows))
       figs values)

(* Work fingerprint of one pass: 345 cells and the sum of the EDF
   fixed-point iteration counts, as recorded for the paper's grid at
   s_points = 16.  A change that alters the iteration count changes the
   amount of work this workload does and must update these figures. *)
let expected_cells = 345
let expected_iterations = 1544
