(** Operational (packet-level) scheduling policies for the simulator.

    A policy maps a batch's class and arrival time at the node to a
    precedence key; the node serves backlogged batches in increasing key
    order (ties broken by arrival time, then by class index).  These are
    the operational counterparts of the ∆-matrices in {!Classes};
    {!of_two_class} connects the two.

    {b Every policy must be locally FIFO} (Def. 1): within one class, the
    keys of successive arrivals never decrease.  The simulator's node
    relies on it — it keeps one FIFO per class and only compares the
    class heads — and [Netsim.Queue_node.offer] raises [Invalid_argument]
    on a key below the key of its class's last queued batch. *)

type key = { major : float; minor : float; tie : int }

val compare_key : key -> key -> int
[@@lint.allow "unused-export"] (* test hook: test_scheduler.ml "policy fifo order" *)

type t

val name : t -> string
[@@lint.allow "unused-export"] (* test hook: test_netsim.ml "in-place built-in key = Policy.key, bit for bit" *)

val key : t -> arrival:float -> cls:int -> size:float -> key
[@@lint.allow "unused-export"] (* oracle: test_netsim.ml "in-place built-in key = Policy.key, bit for bit" *)
(** Precedence key of a batch of [size] kb of class [cls] arriving at the
    node at [arrival].  Lower keys are served first.  Most policies ignore
    [size]; SCED-style policies (whose deadlines advance with the amount
    of guaranteed service) do not.  Policies may carry per-node mutable
    state, so a fresh value must be used per node (see {!Sced.policy}). *)

(** {1 Key rules}

    How a policy computes its key.  The built-in policies are data, so
    the node resolves the rule once and computes their keys in place,
    without allocating; a policy from {!make} carries its own function. *)

type builtin =
  | Fifo  (** [{ major = arrival; minor = 0.; tie = cls }] *)
  | Static_priority of int array
      (** [{ major = -. priority.(cls); minor = arrival; tie = cls }] *)
  | Edf of float array  (** [{ major = arrival +. deadline.(cls); minor = arrival; tie = cls }] *)
  | Bmux of int
      (** [{ major = (if cls = tagged then 1. else 0.); minor = arrival; tie = cls }] *)

type rule =
  | Builtin of builtin
  | Custom of (arrival:float -> cls:int -> size:float -> key)

val rule : t -> rule

val make :
  name:string ->
  key:(arrival:float -> cls:int -> size:float -> key) ->
  ?matrix:(n:int -> Classes.matrix option) ->
  unit ->
  t
(** General constructor for custom (possibly stateful) policies; [matrix]
    defaults to [fun ~n:_ -> None] (not a ∆-scheduler, or unknown).
    [key] must be locally FIFO: for one class, a later call (later or
    equal [arrival]) must never return a smaller key. *)

val fifo : t
(** Serve in global arrival order (classes interleaved). *)

val static_priority : priorities:int array -> t
(** Higher integer = higher priority = served first; FIFO within a level. *)

val edf : deadlines:float array -> t
(** Serve by [arrival +. deadline.(cls)], FIFO within equal deadlines. *)

val bmux : tagged:int -> t
(** The tagged class always yields to all other traffic. *)

val of_two_class : Classes.two_class -> through_deadline:float -> cross_deadline:float -> t
(** The two-class policy (class 0 = through, class 1 = cross) matching a
    {!Classes.two_class} analysis descriptor.  The deadlines are used only
    by the EDF case. *)

val is_delta_realizable : t -> n:int -> Classes.matrix option
[@@lint.allow "unused-export"] (* test hook: test_scheduler.ml "policy-matrix roundtrip" *)
(** The ∆-matrix realized by this policy over [n] classes, when one exists
    ([None] would indicate a non-∆ policy; all policies constructed here
    are ∆-schedulers). *)
