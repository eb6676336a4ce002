(** Polymorphic binary min-heap with a caller-supplied comparison: the
    event queue of {!Engine}.  (Queueing nodes need no heap: their
    disciplines are locally FIFO, so [Netsim.Queue_node] keeps one FIFO
    per class.)

    The heap is {e stable}: elements that compare equal under [cmp] pop
    in insertion (FIFO) order.  Deterministic tie-breaking is load-bearing
    — same-timestamp events must process in a fixed order for the event
    engine to be bit-reproducible. *)

type 'a t

val create : cmp:('a -> 'a -> int) -> 'a t
val length : 'a t -> int
val push : 'a t -> 'a -> unit

val peek : 'a t -> 'a option
(** Smallest element, [None] when empty. *)

val pop : 'a t -> 'a option
(** Remove and return the smallest element. *)
