(** A hierarchical timer wheel over integer items.

    The wheel holds opaque [int] items (the event queue's slab slots),
    each tagged with a nanosecond firing time, in a hierarchy of four
    rings of 128 buckets: level 0 buckets spans of one {e quantum}
    (2{^21} ns, about 2.1 ms), so its ring spans 2{^28} ns (about
    268 ms, one 250 ms link hop), and each higher level buckets spans
    128 times coarser — an addressable horizon of 2{^49} ns, about 6.5
    simulated days, far beyond the 64 s maximum RTO backoff. Insert and
    removal are O(1) list pushes; a lazily-advanced cursor expires
    level-0 buckets and {e cascades} higher-level buckets downward as
    their start boundary is crossed, jumping between occupied bucket
    boundaries found from one occupancy bitmap per level. Parking and
    advancing allocate nothing.

    The wheel is deliberately {e not} an ordered queue: {!advance}
    hands back every item due by [upto_ns] — possibly up to one quantum
    early, and in no particular order within a bucket. The caller
    (see {!Event_queue}) re-inserts flushed items into its comparison
    heap, so observable firing order is decided there; the wheel only
    absorbs the schedule/cancel churn of the many timers that never
    fire (RTO re-arms, pacing gaps, delayed ACKs) and the link hops
    that are due a propagation delay out.

    Items whose delay from the cursor exceeds {!horizon_ns}, or whose
    time is within one quantum (due "now"), are rejected by {!add} and
    must be kept in the caller's fallback ordering structure. *)

type t

val create : ?capacity:int -> unit -> t
(** [capacity] (default 64) pre-sizes the per-item link arrays; it must
    cover the caller's slab (see {!ensure_capacity}).
    @raise Invalid_argument if [capacity < 1]. *)

val count : t -> int
(** Items currently parked in the wheel. *)

val cursor_ns : t -> int
(** The expiry frontier: every bucket starting before this time has
    been flushed. Advances monotonically. *)

val quantum_ns : int
(** The level-0 bucket span, 2{^21} ns. *)

val buckets_per_level : int
(** Buckets in each level's ring, 128: level [l] spans
    [quantum_ns * buckets_per_level{^(l+1)}] nanoseconds. *)

val horizon_ns : int
(** Width of the addressable window above the cursor, 2{^49} ns. *)

val ensure_capacity : t -> int -> unit
(** Grow the per-item arrays so items in [0, n) are addressable. *)

val add : t -> item:int -> time_ns:int -> bool
(** [add t ~item ~time_ns] parks [item] to be flushed when the cursor
    reaches its bucket. Returns [false] — without storing anything — if
    the time is within one quantum of the cursor (the caller should
    treat it as due), at or past the addressable horizon, or beyond the
    wheel's absolute ceiling. [item] must not already be in the wheel. *)

val time_ns : t -> int -> int
(** The firing time [item] was last parked with by {!add}; read it in
    [flush] to learn when a flushed item is due. *)

val advance : t -> upto_ns:int -> flush:(int -> unit) -> unit
(** Move the cursor to just past [upto_ns], calling [flush] on every
    item whose time is [<= upto_ns] (bucket granularity: items sharing
    the final bucket may be flushed up to one quantum early). [flush]
    must not re-enter the wheel. Cost is amortised: the cursor jumps
    directly between occupied bucket boundaries. *)

val advance_first : t -> upto_ns:int -> flush:(int -> unit) -> unit
(** Like {!advance}, but stop after flushing the first level-0 bucket
    that held any item, with the cursor on that bucket's end — within
    one quantum of the flushed items' times. If no item is due by
    [upto_ns], the same as {!advance}. *)
