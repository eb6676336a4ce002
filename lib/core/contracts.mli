(** Admission-time domain contracts.

    The analytical pipeline silently assumes three families of invariants
    that nothing previously checked:

    - the ∆ matrix of a scheduler is well formed (Section III): zero
      diagonal, no NaN entries; an EDF matrix is antisymmetric and
      translation-consistent ([∆jk = d*_j - d*_k]); a static-priority
      matrix draws its entries from [{-∞, 0, +∞}] and its precedence
      relation is transitive;
    - traffic envelopes fed to Theorem 2 are concave (the theorem's
      tightness argument needs it);
    - the offered load is stable ([Σ ρ_k < C]) so a finite bound can exist.

    Each checker returns the complete list of typed {!finding}s instead of
    raising on the first one, so a front end can report everything at once;
    {!ensure} converts a non-empty list into a {!Violation} for call sites
    that must not proceed, and {!diag_of} folds a result into the shared
    {!Diag.t} diagnostics ({!Diag.Invalid} on any finding). *)

type finding =
  | Delta_diag_nonzero of { j : int }
      (** [∆jj <> 0]: the scheduler is not locally FIFO. *)
  | Delta_nan of { j : int; k : int }  (** a [Fin nan] entry. *)
  | Delta_asymmetric of { j : int; k : int }
      (** EDF: [∆jk <> -∆kj]; SP: the precedence of [(j, k)] and [(k, j)]
          disagree. *)
  | Delta_inconsistent of { i : int; j : int; k : int }
      (** EDF: [∆ik <> ∆ij + ∆jk], so no deadline vector [d*] exists. *)
  | Sp_entry_invalid of { j : int; k : int }
      (** SP: an off-diagonal entry outside [{-∞, 0, +∞}]. *)
  | Sp_intransitive of { i : int; j : int; k : int }
      (** SP: [i] precedes [j] and [j] precedes [k], but not [i] over [k]. *)
  | Envelope_non_concave of { label : string; at : float }
      (** Theorem 2: envelope fails the concavity chord test near [at]. *)
  | Envelope_negative of { label : string; at : float }
  | Unstable of { offered : float; capacity : float }
      (** [Σ ρ_k >= C]: no finite bound exists. *)
  | Guarantee_invalid of { what : string; value : float }
      (** An admission guarantee parameter out of range: a non-positive or
          non-finite deadline, or a violation probability outside
          [(0, 1)]. *)

val code : finding -> string
(** Stable machine-readable identifier, e.g. ["delta-inconsistent"]. *)

val pp_finding : Format.formatter -> finding -> unit

exception Violation of finding list

val ensure : finding list -> unit
(** @raise Violation when the list is non-empty. *)

val diag_of : finding list -> Diag.t
(** [Converged] on no findings, {!Diag.Invalid} otherwise. *)

type matrix_kind = Auto | Edf | Sp
(** [Auto] classifies from the entries: all-finite means [Edf], all
    off-diagonal entries in [{-∞, 0, +∞}] means [Sp], anything else gets
    only the generic diagonal/NaN checks. *)

val check_matrix :
  ?kind:matrix_kind -> ?tol:float -> n:int -> (int -> int -> Scheduler.Delta.t) -> finding list
(** Check a raw ∆ matrix given by a lookup function, so malformed
    matrices (which {!Scheduler.Classes.v} refuses to build) can still be
    diagnosed. *)

val check_classes : ?kind:matrix_kind -> ?tol:float -> Scheduler.Classes.matrix -> finding list

val check_envelope :
  ?tol:float -> ?samples:int -> label:string -> Minplus.Curve.t -> finding list
(** Concavity (chord test on breakpoints plus a uniform sample grid) and
    non-negativity of a Theorem-2 traffic envelope. *)

val check_stability : capacity:float -> offered:float -> finding list

val check_guarantee : deadline:float -> epsilon:float -> finding list
(** Range checks on an {!Admission.guarantee}: the deadline must be finite
    and strictly positive, the violation probability strictly inside
    [(0, 1)]. *)

val check_scenario : Scenario.t -> finding list
(** The stability contract of the paper's scenario: aggregate mean rate of
    through plus cross flows strictly below the link capacity. *)

type preflight = {
  checks : int;  (** contract checks run *)
  findings : (string * finding) list;
      (** every finding, in check order, labelled by what it came from *)
}

val preflight :
  capacity:float ->
  offered:float ->
  matrices:Scheduler.Delta.t array array list ->
  envelopes:Minplus.Curve.t list ->
  preflight
(** The checks [deltanet check] runs, in this order: the stability of
    [offered] against [capacity] (label ["scenario"]); the shipped
    FIFO, SP, BMUX and EDF matrices over three flows, as a self-check of
    the model zoo (["fifo"], ["sp"], ["bmux"], ["edf"]); each square
    matrix of [matrices] (["matrix#i"]); and each envelope
    (["envelope#i"]).  {!diag_of} over the findings gives the verdict. *)
