(** A buffered link of fixed capacity serving traffic batches under a
    pluggable scheduling discipline — the one queueing node of both
    simulation engines.

    Every discipline here is locally FIFO, so the node keeps one FIFO of
    batches per class and serves, for a ∆-policy, the most urgent class
    head (lowest {!Scheduler.Policy.key}, ties in arrival order), or, for
    GPS, weighted fair shares of the backlogged classes.  Batches are
    fluid: the head batch may be served partially.

    Every simulator drives it one slot at a time: [offer] the slot's
    arrivals, then [serve_slot] spends one slot's capacity. *)

type discipline =
  | Delta_policy of Scheduler.Policy.t
  | Gps of Scheduler.Gps.t

type t

val create : ?packet_size:float -> capacity:float -> classes:int -> discipline -> t
(** [capacity] is the full service rate in kb per slot.

    [packet_size] switches the node from fluid to packetized,
    {e non-preemptive} service: arrivals are segmented into packets of at
    most [packet_size] kb, and once a packet starts transmission it
    finishes before the scheduler re-examines precedence (so an urgent
    arrival can be blocked for up to one packet transmission time — the
    effect the paper's fluid model deliberately ignores).  Not compatible
    with {!Gps} (a fluid discipline by definition).
    @raise Invalid_argument on non-positive capacity, class count, or
    packet size, or when combining [packet_size] with [Gps]. *)

val offer : t -> now:float -> cls:int -> float -> unit
(** Enqueue [size] kb of class [cls] arriving at time [now].  Zero-size
    offers are ignored.  A built-in {!Scheduler.Policy} key is computed in
    place, so such an offer, fluid or packetized, allocates nothing
    (beyond ring growth).
    @raise Invalid_argument on a bad class or a negative, NaN or infinite
    size, or when a ∆-policy hands out a key below the key of the class's
    last queued batch (the policy is not locally FIFO, see
    {!Scheduler.Policy}). *)

val serve_slot : ?factor:float -> t -> float array
(** Transmit up to one slot's capacity, scaled by [factor] (default [1.];
    the caller steps the node's fault process and passes its factor);
    returns the kb departed per class in this slot.  The array belongs to
    the node and is overwritten by the next [serve_slot]: read it before
    serving the node again. *)

val occupied : t -> bool
(** [true] iff any batch is queued or in service — i.e. iff a
    {!serve_slot} call could transmit anything.  The event engine skips
    slot-serves of unoccupied nodes; because serving an unoccupied node is
    a no-op, the skip is exact. *)

val backlog_of : t -> cls:int -> float

val high_water : t -> float
(** Largest total backlog (kb, all classes) observed at this node so far —
    the queue-depth high-water mark surfaced by telemetry. *)
