(** Event-driven simulation core.

    A monotone virtual clock over the stable binary {!Heap}: events are
    scheduled at absolute timestamps and processed in (time, kind,
    scheduling-order) order.  The engine is generic in the event payload;
    queueing-network semantics live with the caller ([Netsim.Tandem]).

    Determinism: the heap is stable, so events with equal timestamp and
    kind are processed in the order they were scheduled.  [schedule]
    rejects timestamps in the past — the clock never moves backwards. *)

type kind =
  | Source_change  (** traffic-source state transition / emission tick *)
  | Service_completion  (** a node's slot of service *)

type 'a event = { time : float; kind : kind; payload : 'a }

type 'a t

val create : unit -> 'a t

val schedule : 'a t -> time:float -> kind:kind -> 'a -> unit
(** Enqueue an event.  @raise Invalid_argument if [time] is NaN or lies
    before the current clock. *)

val next : 'a t -> 'a event option
(** Pop the most urgent event, advancing the clock to its timestamp. *)

val events_processed : 'a t -> int
(** Total events popped so far — exported as a telemetry counter by the
    simulation layer. *)

val heap_high_water : 'a t -> int
(** Largest number of simultaneously queued events seen so far. *)
