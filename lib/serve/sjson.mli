(** A minimal, total JSON parser for the serve request protocol.

    The repository deliberately has no external JSON dependency —
    {!Telemetry.Json} covers emission — so the daemon's input side gets
    this small recursive-descent reader.  Design constraints, in order:

    - {b Total.}  [parse] never raises and never loops: every byte string
      yields [Ok] or [Error], including truncated input, deep nesting
      (bounded by [max_depth]), broken escapes and trailing garbage.
      This is the surface the fuzz suite hammers.
    - {b Honest numbers.}  Numbers follow the JSON grammar and are read
      with [float_of_string]; an overflowing literal like [1e999] becomes
      [infinity] and is {e kept}, because rejecting it here would mask the
      protocol-level validation that turns non-finite fields into typed
      [invalid-request] errors.  The textual forms [NaN]/[Infinity] are
      not JSON and fail the parse.
    - {b No surprises on lookup.}  Accessors are option-returning;
      duplicate object keys resolve to the first occurrence.

    {b Allocation.}  The reader sits on the daemon's per-request path,
    so it allocates only what the result holds plus one state record:
    - looking at a byte allocates nothing ([peek] hands out one of 256
      preallocated [Some c] values; [peek] and the whitespace skip carry
      the [[@@zero_alloc_check]] analyzer gate);
    - a string with no escape and no control byte is one [String.sub];
      any other string is decoded byte by byte through a [Buffer], with
      the same values and error positions;
    - an integer literal of at most 15 digits (no fraction, no exponent)
      is converted in place, exact in a double; every other number goes
      through a substring and [float_of_string];
    - [member] is a closure-free scan;
    - [fields] reads a request without building its top-level object:
      no member list and no key strings.
    A hot admit line of six fields (perfbench's format) costs 117 minor
    words through [parse] and 84 through the protocol's [fields] read;
    tests hold them at 150 and 105. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val parse : ?max_depth:int -> string -> (t, string) result
(** Parse one complete JSON value (default [max_depth] 64 levels of
    array/object nesting).  The whole input must be consumed apart from
    whitespace; anything left over is an error. *)

type keys
(** A set of object keys to look up, compiled once. *)

val keys : string array -> keys

val fields : keys -> string -> (t option array, string) result
(** [fields (keys names) src] reads [src] in one pass, without building
    the top-level object: slot [i] of the result is [member names.(i)] of
    what [parse src] returns, and the errors are [parse]'s (at the
    default [max_depth]), with the same messages and byte positions.  Keys are compared where they lie in
    [src] (an escaped key is decoded first); the values of other keys and
    of repeated keys are read by the same reader and dropped.  A
    top-level value that is not an object fills no slot. *)

val member : string -> t -> t option
(** First binding of the key in an [Obj]; [None] otherwise. *)

val to_float : t -> float option
(** [Num] payload; [None] for every other constructor (no coercions). *)

val to_string : t -> string option
val to_bool : t -> bool option

val type_name : t -> string
(** ["null"], ["bool"], ["number"], ["string"], ["array"] or ["object"] —
    for error messages. *)
