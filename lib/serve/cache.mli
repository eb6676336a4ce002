(** A bounded LRU map from path-shape keys to the engine's per-shape
    entries (the memoized bounds of each mode).

    The daemon's memory bound: at most [capacity] entries live at once, a
    [put] past the bound evicts the least-recently-used entry, and [find]
    refreshes recency — so a soak over millions of distinct shapes holds
    the worst case at [capacity] entries regardless of traffic.  O(1)
    lookup (hash table) and O(1) recency maintenance (intrusive doubly
    linked list).  Single-domain by design: the serving driver owns the
    cache and workers never touch it.

    Instrumented via [telemetry]: counters [serve.cache.hits] /
    [serve.cache.misses] / [serve.cache.evictions], gauge
    [serve.cache.size]. *)

type 'a t

val create : capacity:int -> 'a t
(** @raise Invalid_argument on a non-positive capacity. *)

val find : 'a t -> string -> 'a option
(** Lookup; a hit moves the entry to most-recently-used and counts
    [serve.cache.hits], a miss counts [serve.cache.misses]. *)

val put : 'a t -> string -> 'a -> unit
(** Insert or overwrite (either way the key becomes most-recently-used);
    evicts the least-recently-used entry when full. *)

val length : 'a t -> int
val capacity : 'a t -> int

val mem : 'a t -> string -> bool
[@@lint.allow "unused-export"] (* test hook: test_serve.ml "cache mem is pure" *)
(** Pure membership probe: no recency update, no counters. *)
