(** Event-driven tandem simulation over {!Desim.Engine}.

    Used through {!Tandem.run}[ ~engine:Event]; this interface exists so
    the dispatcher in [Tandem] stays cycle-free, and it holds what the
    slotted engine shares with this one: the run description, its
    validation, the canonical RNG stream setup and the outcome record.
    Two fidelity paths:

    - {b Lockstep} (slot-aligned configs: no propagation delay, no loss):
      reuses {!Queue_node} at slot granularity, touching a node only on
      slots where it is occupied or offered work, while every stochastic
      source and fault process still advances once per slot with the same
      per-stream RNG order as the slotted engine.  Per-flow delay samples
      are {e bit-identical} to [Tandem.run] on the same config and seed —
      the differential-testing guarantee.
    - {b Continuous} (propagation delay and/or loss present): the same
      {!Queue_node}s on their continuous clock; statistically equivalent
      to a slotted run (quantile-envelope parity), not sample-identical. *)

type source_kind =
  | Markov  (** aggregate on-off Markov flows ({!Source}) *)
  | Cbr of { period : int; burst : float }
      (** deterministic burst of [burst] kb every [period] slots *)

type params = {
  h : int;
  capacities : float array;  (** per-node service rate (kb/slot), length [h] *)
  discipline : Queue_node.discipline;
  packet_size : float option;
  source : Envelope.Mmpp.t;
  through_kind : source_kind;
  n_through : int;
  n_cross : int;
  slots : int;
  drain_limit : int;
  seed : int64;
  faults : (int * Faults.spec) list;
  prop_delay : float array option;
      (** per-hop delay after node [i] (slot units); [None] = slot-aligned
          store-and-forward (1 per internal hop, 0 to the sink) *)
  loss : float array option;
      (** per-link through-traffic drop probability after node [i] *)
}

type outcome = {
  delays : Desim.Stats.Sample.t;
  through_backlog : Desim.Stats.Sample.t;
  through_kb : float;
  censored_kb : float;
  lost_kb : float;
  utilization : float array;
  fault_factor : float array;
  events_processed : int;
}
(** A run's measurements; documented as {!Tandem.result}. *)

val validate : params -> unit
(** @raise Invalid_argument on inconsistent arities, out-of-range
    parameters, or a fault spec off the path or repeated for a node. *)

type setup = {
  nodes : Queue_node.t array;
  through_src : Source.t option;
      (** [None] for a CBR or empty ([n_through = 0]) through aggregate *)
  cross_srcs : Source.t array;  (** one per node *)
  fault_procs : Faults.process option array;  (** one per node *)
  rng : Desim.Prng.t;  (** parent stream, for draws after the canonical ones *)
}

val setup : params -> setup
(** A run's nodes and stochastic processes, every RNG stream split from
    [seed] in the canonical order all engines share: the through source
    (split even when it is CBR or empty), one cross source per node in
    node order, then one fault process per faulted node in node order.
    Identical derivation is what makes the engines' samples
    bit-identical. *)

val mean_factors : Faults.process option array -> float array
(** Realized mean capacity factor per node, [1.] where healthy. *)

val slot_aligned : params -> bool
(** [true] iff the config has neither propagation delay nor loss, i.e.
    the exact-parity lockstep path applies. *)

val run : params -> outcome
(** Runs {!validate}d params; reports [netsim.desim.events] and
    [netsim.desim.heap_hwm] to telemetry. *)
