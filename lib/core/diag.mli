(** Typed convergence diagnostics and numeric guards for the bound
    optimizers.

    The numerical layers (the effective-bandwidth [s]-grid search, the
    [gamma] optimization, the EDF fixed point) historically signalled
    failure by silently returning [infinity] or [nan].  A {!t} makes the
    failure mode explicit:

    - {!Converged}: a finite value was found within tolerance.
    - {!Unstable}: the scenario admits no feasible operating point (no
      stable [s], or [gamma_max <= 0.]) — the bound is genuinely
      [infinity], the analytical counterpart of an overloaded path.
    - {!Diverged}: an iteration hit its cap without meeting tolerance; the
      value is the last iterate and must not be trusted as a bound.
    - {!Non_finite}: a NaN leaked out of the numerics — a bug or an
      ill-conditioned input, never a valid answer.
    - {!Invalid}: the model violates a domain contract (see
      {!Contracts}) — the computation was refused, not attempted. *)

type status = Converged | Unstable | Diverged | Non_finite | Invalid

type t = {
  status : status;
  iterations : int;  (** objective evaluations or fixed-point iterations *)
  tolerance : float;  (** final relative change (0. when not iterative) *)
}

type 'a outcome = { value : 'a; diag : t }

val v : ?iterations:int -> ?tolerance:float -> status -> t
val outcome : ?iterations:int -> ?tolerance:float -> status -> 'a -> 'a outcome

val ok : t -> bool
(** [true] iff {!Converged}. *)

val status_to_string : status -> string

val note : t -> string
(** What to print after a value: [""] when {!Converged}, else the
    status in parentheses with a leading blank, e.g. [" (diverged)"]. *)

val pp : Format.formatter -> t -> unit
