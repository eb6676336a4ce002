(** Output traffic characterization — the deconvolution theorem of the
    stochastic network calculus, specialized to the EBB family.

    A flow with statistical sample-path envelope [G t = (rho +. gamma) t]
    (bounding function [eps_g]) crossing a node with statistical service
    curve [S t = service_rate *. t] (bounding function [eps_s]) departs
    with the interval envelope [G ⊘ S = (rho +. gamma) t] and bounding
    function [inf_{s1+s2=sigma} eps_g s1 +. eps_s s2] — i.e. the output is
    again EBB, with rate increased by [gamma] and the decays combined
    harmonically.  This per-node burstiness accumulation is exactly what
    makes node-by-node analyses ({!Additive}) blow up on long paths. *)

val ebb_through_node :
  input:Envelope.Ebb.t ->
  service_rate:float ->
  service_bound:Envelope.Exponential.t ->
  gamma:float ->
  Envelope.Ebb.t
[@@lint.allow "unused-export"] (* oracle: test_sources_output.ml "output chain = additive" *)
(** The departure EBB characterization described above.
    @raise Invalid_argument if the node is unstable
    ([input.rho +. gamma > service_rate]) or [gamma <= 0.]. *)

val deterministic :
  arrival:Minplus.Curve.t -> service:Minplus.Curve.t -> Minplus.Curve.t
[@@lint.allow "unused-export"] (* deletion deferred: test_sources_output.ml "output deterministic" *)
(** Worst-case output envelope [arrival ⊘ service] (min-plus
    deconvolution); requires a stable pair. *)
