(** Binary min-heap over (key, rank) pairs: the event queue of
    {!Engine}.  (Queueing nodes need no heap: their disciplines are
    locally FIFO, so [Netsim.Queue_node] keeps one FIFO per class.)

    Elements pop by key, then rank, then insertion order: the heap is
    {e stable}, so elements pushed with equal key and rank pop in
    insertion (FIFO) order.  Deterministic tie-breaking is load-bearing
    — same-timestamp events must process in a fixed order for the event
    engine to be bit-reproducible. *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int

val push : 'a t -> key:float -> rank:int -> 'a -> unit
(** [key] must not be NaN.  @raise Invalid_argument unless
    [0 <= rank < 2{^14}]. *)

val peek : 'a t -> 'a option
(** First element, [None] when empty. *)

val pop : 'a t -> 'a option
(** Remove and return the first element. *)
