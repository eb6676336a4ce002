(** Node-by-node additive end-to-end analysis for blind multiplexing — the
    baseline the paper plots in Fig. 4 to show why network service curves
    matter.

    At each node the through traffic receives the BMUX leftover rate
    [C -. rho_c -. gamma]; the per-node delay bound follows from the local
    sample-path envelope, the violation budget is split evenly across
    nodes, and the output of each node is re-characterized as EBB via the
    deconvolution theorem (the exponential decay degrades harmonically,
    [1/alpha' = 1/alpha_in +. 1/alpha_service], and the envelope rate picks
    up [gamma] per hop).  Total delay = sum of per-node bounds, which grows
    super-linearly in [H] (O(H^3 log H) in discrete time), in contrast to
    the Θ(H log H) network-service-curve bound of {!E2e}. *)

type per_node = {
  delay : float;
  input : Envelope.Ebb.t;  (** through-traffic EBB at this node's input *)
}

val analyze :
  capacity:float ->
  cross:Envelope.Ebb.t ->
  through:Envelope.Ebb.t ->
  h:int ->
  gamma:float ->
  epsilon:float ->
  per_node list * float
[@@lint.allow "unused-export"] (* oracle: test_e2e.ml "fused Additive = snd (Additive.analyze ...), bit for bit" *)
(** Per-node bounds and their sum; the per-node violation budget is
    [epsilon /. h].  Returns [([], infinity)] when some node is unstable
    at this [gamma]. *)

val delay_sum :
  capacity:float ->
  cross:Envelope.Ebb.t ->
  through:Envelope.Ebb.t ->
  h:int ->
  gamma:float ->
  epsilon:float ->
  float
(** [snd (analyze ...)] bit for bit, with the same [Invalid_argument]
    messages, in one allocation-free pass over the nodes: the γ
    objective of {!delay_bound}.  {!analyze} stays as its oracle. *)

val delay_bound :
  capacity:float ->
  cross:Envelope.Ebb.t ->
  h:int ->
  epsilon:float ->
  Envelope.Ebb.t ->
  float
(** The additive bound, {!delay_sum}, minimized over a 40-point
    [gamma] grid ({!Search.minimize}, no refinement). *)

val delay_bound_scenario : ?s_points:int -> Scenario.t -> float
(** The additive BMUX bound for a paper scenario, optimized over both [s]
    (an [s_points] grid, default {!Scenario.s_points}) and [gamma] — the "adding per-node bounds" series of Fig. 4. *)
