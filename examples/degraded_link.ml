(* Fault injection vs. degraded-capacity bounds.

   A node whose capacity is scaled by a factor f serves its through class
   at best what a healthy node of capacity f·C would — the operational
   reading of the leftover service curve (Theorem 1) under degradation.
   This example injects a permanent 20% rate drop on every node of a
   2-hop path, then checks the measured delays against the analytic bound
   of a healthy path at 0.8·C, and shows how much headroom the healthy
   bound loses.

   Run with:  dune exec examples/degraded_link.exe *)

module Scenario = Deltanet.Scenario
module Diag = Deltanet.Diag
module Classes = Scheduler.Classes
module Faults = Netsim.Faults
module Tandem = Netsim.Tandem
module Stats = Desim.Stats

let h = 2
let n_through = 100
let n_cross = 360 (* 69% load at full capacity, 86% under the fault *)
let factor = 0.8
let slots = 200_000

let sim faults =
  Tandem.run
    {
      Tandem.default_config with
      Tandem.h;
      n_through;
      n_cross;
      slots;
      drain_limit = 20_000;
      seed = 9L;
      faults;
    }

let bound capacity =
  let sc =
    {
      (Scenario.paper_defaults ~h ~n_through:(float_of_int n_through)
         ~n_cross:(float_of_int n_cross))
      with
      Scenario.capacity;
      epsilon = 1e-3;
    }
  in
  Scenario.delay_bound_checked ~scheduler:Classes.Fifo sc

let () =
  let spec = Faults.Constant factor in
  let degraded = sim [ (0, spec); (1, spec) ] in
  let healthy = sim [] in
  Fmt.pr "2-hop FIFO path, %d+%d flows, capacity factor %.2f on both nodes@."
    n_through n_cross factor;
  Fmt.pr "  realized mean capacity factors: %a@."
    Fmt.(array ~sep:(any ", ") (fmt "%.3f"))
    degraded.Tandem.fault_factor;
  List.iter
    (fun (name, r) ->
      Fmt.pr "  %-8s sim q(1e-3) = %6.1f ms   max = %6.1f ms@." name
        (Tandem.delay_quantile r 0.999)
        (Stats.Sample.max r.Tandem.delays))
    [ ("healthy", healthy); ("degraded", degraded) ];
  List.iter
    (fun (name, capacity) ->
      let o = bound capacity in
      Fmt.pr "  bound @1e-3, capacity %5.1f (%s): %8.1f ms   [%a]@." capacity
        name o.Diag.value Diag.pp o.Diag.diag)
    [
      ("healthy C", Tandem.default_config.Tandem.capacity);
      ("degraded f*C", factor *. Tandem.default_config.Tandem.capacity);
    ];
  (* the degraded run must stay within the degraded-capacity bound *)
  let b = (bound (factor *. Tandem.default_config.Tandem.capacity)).Diag.value in
  let store_and_forward = float_of_int (h - 1) in
  let worst = Stats.Sample.max degraded.Tandem.delays in
  if worst > b +. store_and_forward then
    failwith "degraded run exceeded the degraded-capacity bound"
  else Fmt.pr "  check: degraded worst case %.1f <= degraded bound %.1f  ok@." worst
      (b +. store_and_forward)
