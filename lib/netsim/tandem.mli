(** Simulation of the paper's multi-node network (Fig. 1): a through flow
    aggregate traversing [h] nodes, with an independent fresh cross-traffic
    aggregate at every node.

    Semantics: store-and-forward with 1-ms slots — traffic departing node
    [i] during slot [t] is offered to node [i+1] at slot [t+1]; within a
    slot a node transmits up to its capacity in precedence order.  The
    measured quantity is the virtual end-to-end delay of each slot's through
    arrivals, [W t = inf { s | D (t +. s) >= A t }], matching Eq. (6).

    Two engines implement these semantics (see {!engine}) over one
    validation and one RNG stream setup: every stream is split from
    [seed] in the same order (the through source, split even when it is
    CBR or empty; one cross source per node in node order; one fault
    process per faulted node in node order).  The slotted engine is the
    reference ("the oracle").  The event engine runs the same
    {!Queue_node}s at slot granularity over a worklist of due nodes,
    touching a node only on slots where it is occupied or offered work
    and jumping over slots where nothing steps or is due, while every
    source and fault process still advances once per slot in the slotted
    per-stream order.  Both measure Eq. (6) by
    {!Desim.Stats.virtual_delays} over the same dense cumulative
    counters, so every field of the result except [events_processed] is
    {e bit-identical} between them on the same config — the
    differential-testing guarantee. *)

type engine =
  | Slotted  (** time-stepped reference loop: one pass per slot over every node *)
  | Event
      (** slot loop over a worklist of due nodes: each slot steps the
          sources (the through source, then each node's cross source and
          fault process in node order), then serves the nodes due in it,
          so idle (node, slot) pairs are skipped, with bit-identical
          results and the same seed derivation.  Reports the
          [netsim.desim.events] counter ([events_processed]) and the
          [netsim.desim.heap_hwm] gauge, which keeps its older name but
          records the largest number of nodes due in one slot *)

type source_kind =
  | Markov  (** aggregate of [n] on-off Markov flows (the paper's model) *)
  | Cbr of { period : int; burst : float }
      (** deterministic [burst] kb every [period] slots — engine-independent
          by construction, and sparse traffic for engine benchmarks *)

type config = {
  h : int;  (** path length (number of nodes) *)
  capacity : float;  (** kb per slot per node *)
  capacities : float array option;
  (** per-node capacities (length [h]); overrides [capacity] when set.
      Supported by both engines. *)
  source : Envelope.Mmpp.t;  (** per-flow traffic model *)
  through_kind : source_kind;  (** through-aggregate kind; cross traffic is always Markov *)
  n_through : int;
  n_cross : int;  (** cross flows per node *)
  scheduler : Scheduler.Classes.two_class;
  through_deadline : float;  (** EDF per-node deadline of through class (ms) *)
  cross_deadline : float;
  slots : int;  (** slots during which through traffic arrives *)
  drain_limit : int;  (** extra slots to flush in-flight through data *)
  seed : int64;
  gps_weights : (float * float) option;
  (** when set, nodes run fluid GPS with these (through, cross) weights —
      the paper's example of a scheduler that is {e not} a ∆-scheduler —
      and [scheduler] is ignored *)
  packet_size : float option;
  (** when set, nodes serve non-preemptively in packets of this size (kb),
      relaxing the paper's fluid assumption *)
  faults : (int * Faults.spec) list;
  (** capacity-degradation processes per node index, at most one per node;
      unlisted nodes stay healthy.  A fault-free run is bit-identical to
      one with [faults = \[\]].
      Fault processes for [Gilbert] specs draw dedicated rng streams derived
      from [seed]. *)
}

val default_config : config
(** The paper's Example-1-style setup at [h = 2], [U = 50%%], FIFO, with a
    modest horizon suitable for tests. *)

type result = {
  delays : Desim.Stats.Sample.t;  (** virtual e2e delay (ms), one per arrival slot *)
  through_backlog : Desim.Stats.Sample.t;
  (** total through data inside the network (kb), sampled every slot of the
      arrival horizon — the operational counterpart of the end-to-end
      backlog bound *)
  through_kb : float;  (** through data injected *)
  censored_kb : float;  (** through data still in flight when the run ended *)
  utilization : float array;  (** measured per-node utilization *)
  fault_factor : float array;
  (** realized mean capacity factor per node ([1.] where healthy) *)
  events_processed : int;
  (** the event engine's source ticks (one per slot while any source or
      fault process steps), CBR emissions and node serves ([0] for a
      slotted run) — also exported as the [netsim.desim.events]
      telemetry counter *)
}

val run : ?engine:engine -> config -> result
(** [engine] defaults to [Slotted].  @raise Invalid_argument on a
    malformed config (see {!check}). *)

val engine_of_string : string -> (engine, string) Stdlib.result
val engine_to_string : engine -> string

val delay_quantile : result -> float -> float
(** [delay_quantile r q] — convenience accessor on [r.delays]. *)

val check : config -> (unit, string) Stdlib.result
(** The checks {!run} makes before simulating, without running:
    [Error] names the first bad field — a fault spec off the path or
    repeated for a node, a non-positive length or horizon, and so on.
    Call it before handing a config to code that turns exceptions into
    failures, such as {!Replicate}. *)

val of_utilization :
  ?faults:(int * Faults.spec) list ->
  h:int ->
  u_through:float ->
  u_cross:float ->
  slots:int ->
  scheduler:Scheduler.Kind.t ->
  seed:int64 ->
  unit ->
  config
(** The paper's Example-1 setup at the given loads on {!default_config}'s
    links and sources: [round (u *. capacity /. mean)] flows per class,
    [slots / 10] drain slots, and EDF deadlines anchored at
    [d*_0 = 10] ms with [d*_c = ratio *. d*_0]. *)

val q99_growth : ?engine:engine -> u:float -> slots:int -> unit -> (float * float) list
(** [(h, q0.99 delay)] simulated at the path lengths [2, 4, 8, 16, 32]
    of {!Deltanet.Scaling.delay_growth}: FIFO, [U0 = Uc = u], [slots]
    slots, seed [4242 + h].  Its empirical counterpart, fitted by the
    same [growth_exponent]. *)
