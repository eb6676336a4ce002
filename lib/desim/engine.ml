(* Event-driven simulation core: a monotone virtual clock over the stable
   binary heap.  The engine is generic in the event payload; domain logic
   (queueing networks, sources, faults) lives with the caller. *)

type kind =
  | Source_change
  | Service_completion

(* Same-timestamp processing order: sources emit and fault factors
   settle, then service runs — mirroring the per-slot order of the
   slotted simulator.  Within one (time, kind) bucket the stable heap
   preserves scheduling order. *)
let rank = function Source_change -> 0 | Service_completion -> 1

type 'a event = { time : float; kind : kind; payload : 'a }

type 'a t = {
  heap : 'a event Heap.t;
  mutable clock : float;
  mutable processed : int;
  mutable heap_hwm : int;
}

let create () = { heap = Heap.create (); clock = 0.; processed = 0; heap_hwm = 0 }

let schedule t ~time ~kind payload =
  if Float.is_nan time then invalid_arg "Engine.schedule: NaN timestamp";
  if time < t.clock then
    invalid_arg
      (Printf.sprintf "Engine.schedule: timestamp %g before clock %g" time t.clock);
  Heap.push t.heap ~key:time ~rank:(rank kind) { time; kind; payload };
  let n = Heap.length t.heap in
  if n > t.heap_hwm then t.heap_hwm <- n

let next t =
  match Heap.pop t.heap with
  | None -> None
  | Some ev as next ->
    (* The heap is a min-heap over (time, kind): the clock never moves
       backwards. *)
    t.clock <- ev.time;
    t.processed <- t.processed + 1;
    next

let events_processed t = t.processed
let heap_high_water t = t.heap_hwm
