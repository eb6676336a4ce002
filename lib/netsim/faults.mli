(** Seeded capacity-degradation processes for fault injection.

    A fault process emits, slot by slot, a capacity factor in [0, 1] that
    scales a node's service rate for that slot.  A factor of [1.] is a
    healthy slot, [0.] a full outage, anything in between a rate drop —
    the operational counterpart of a reduced leftover service curve
    (Theorem 1): a node whose capacity is scaled by [f] serves the through
    class at best what a healthy node of capacity [f *. C] would. *)

type spec =
  | Constant of float
      (** Permanent rate drop: every slot runs at this factor. *)
  | Windows of (int * int * float) list
      (** Scheduled transient faults: [(start, stop, factor)] scales slots
          in [start, stop).  Overlapping windows combine by taking the
          smallest factor; slots outside every window are healthy. *)
  | Gilbert of { p_fail : float; p_recover : float; factor : float }
      (** Random transient faults: a two-state (healthy/degraded) Markov
          chain, entering degradation with [p_fail] per healthy slot and
          recovering with [p_recover] per degraded slot; degraded slots run
          at [factor]. *)

val validate : spec -> unit
(** @raise Invalid_argument on factors or probabilities outside [0, 1],
    empty window lists, or windows that end before they start. *)

val stationary_factor : spec -> float
[@@lint.allow "unused-export"] (* oracle: test_robustness.ml "gilbert fault process" *)
(** Long-run mean capacity factor ([Gilbert] stationary average,
    [Constant] itself, worst window factor for [Windows]). *)

type process

val make : ?rng:Desim.Prng.t -> spec -> process
(** @raise Invalid_argument on an invalid spec, or a [Gilbert] spec
    without an [rng]. *)

val step : process -> float
(** The capacity factor of the current slot; advances the process. *)

val mean_factor : process -> float
(** Realized mean factor over the elapsed slots ([1.] before any slot). *)

val transitions : process -> int
(** Realized healthy<->degraded state flips ([Gilbert]; [0] for the
    deterministic specs, whose windows are not state transitions). *)

val spec_to_string : spec -> string

val spec_of_string : string -> (spec, string) result
(** Inverse of {!spec_to_string}: [const:F], [window:A-B:F] (several may be
    joined with [+]), or [gilbert:PFAIL:PREC:F]. *)

val node_spec_of_string : string -> (int * spec, string) result
(** [NODE:SPEC]: a 0-based node index (negative ones refused) and a
    {!spec_of_string} spec.  Whether the node is on the path is the
    tandem's check ({!Tandem.check}), not the parser's. *)
