(** Single-node, multi-class simulation: one buffered link shared by any
    number of traffic classes under a pluggable ∆-policy (multi-level SP,
    multi-deadline EDF, FIFO, ...).  Measures the per-class virtual delay
    [W_j t = inf { s | D_j (t +. s) >= A_j t }] (Eq. 6 of the paper) —
    the operational counterpart of the {!Deltanet.Single_node} bounds. *)

type class_spec = {
  n_flows : int;
  source : Envelope.Mmpp.t;
}

type config = {
  capacity : float;  (** kb per slot *)
  classes : class_spec array;
  policy : Scheduler.Policy.t;
  slots : int;
  drain_limit : int;
  seed : int64;
  faults : Faults.spec option;
  (** capacity-degradation process applied to the node; [None] = healthy *)
}

val default_config : config
(** Two equal on-off classes under FIFO at 50%% load. *)

type result = {
  delays : Desim.Stats.Sample.t array;  (** per class, in slots *)
  utilization : float;
  offered_kb : float array;
  censored_kb : float array;
  (** per class, data (kb) still queued when the run ended: the arrivals
      [delays] has no sample for *)
  fault_factor : float;
  (** realized mean capacity factor ([1.] when no faults configured) *)
}

val run : config -> result

val quantile : result -> cls:int -> float -> float
