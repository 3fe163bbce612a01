(** Simulation time.

    Time is a non-negative count of virtual {e nanoseconds} since the
    start of the simulation, represented as a native [int]. An OCaml
    [int] is immediate, so times are never boxed — an event timestamp
    costs zero heap words and {!compare} is a single integer compare.
    The type stays abstract so code cannot accidentally mix times with
    other numeric quantities (rates, sizes, ...). It is declared
    [[@@immediate]], so arrays and mutable fields of times are stored
    like [int]s (no write barrier, no float-array check), and {!to_ns}
    is a primitive, so reading a tick count never calls across modules.

    Resolution is 1 ns; [of_sec]/[of_ms]/[of_us] round to the nearest
    tick. The representable horizon is [2^62 - 2] ns, about 146 years
    of simulated time. Range validation happens at construction only;
    {!add}, {!diff} and comparisons are raw integer operations. *)

type t [@@immediate]
(** A point in virtual time, in nanosecond ticks. *)

type span = t
(** A duration. Durations and absolute times share the representation but
    the two names document intent in signatures. *)

val zero : t

val never : t
(** A time later than every constructible time ({!of_sec} rejects
    values beyond the tick horizon), for "no horizon" comparisons. Do
    not do arithmetic with it. *)

val of_sec : float -> t
(** [of_sec s] is the time [s] seconds after the origin, rounded to the
    nearest nanosecond. Raises [Invalid_argument] if [s] is negative,
    not finite, or beyond the tick horizon. *)

val to_sec : t -> float

val of_ms : float -> t
val of_us : float -> t

val of_ns : int -> t
(** [of_ns n] is exactly [n] ticks. Raises [Invalid_argument] if [n] is
    negative. Exact — no rounding — so tests can pin tick values. *)

external to_ns : t -> int = "%identity"
(** Exact tick count; the inverse of {!of_ns}. *)

val add : t -> span -> t

val diff : t -> t -> span
(** [diff a b] is [a - b]. Raises [Invalid_argument] if [b > a]. *)

val mul : span -> float -> span
(** [mul d k] scales duration [d] by a non-negative factor [k], rounding
    to the nearest tick. *)

val compare : t -> t -> int
val equal : t -> t -> bool
val ( < ) : t -> t -> bool
val ( <= ) : t -> t -> bool
val ( > ) : t -> t -> bool
val ( >= ) : t -> t -> bool

val min : t -> t -> t
val max : t -> t -> t

val pp : Format.formatter -> t -> unit
(** Prints as seconds with microsecond precision, e.g. ["12.345678s"]. *)
