(** A time-ordered queue of pending simulation events.

    Events scheduled for the same instant fire in scheduling order (FIFO
    within a timestamp), which makes runs deterministic. Cancellation is
    lazy: a cancelled event stays in the heap but is skipped on pop.

    The queue is built for an allocation-free inner loop: events live in
    a slab of parallel arrays, popped and cancelled slots are recycled
    through a free list, and a {!handle} is an immediate integer packing
    the slot with a generation counter — so steady-state
    [schedule]/[pop_if_before] cycles allocate nothing, and a stale
    handle (whose slot was recycled for a newer event) is recognised and
    ignored by {!cancel} and {!is_pending}. Each heap entry carries its
    time beside its slot, so ordering two entries compares two integers
    in place; the scheduling order is consulted only on equal times.

    Far-out events are parked in a hierarchical {!Timer_wheel} (O(1)
    schedule/cancel) and flushed into the comparison heap before they
    can surface, so observable pop order — (time, then scheduling
    order) — is identical to a heap-only queue. *)

type t

type handle
(** Identifies a scheduled event so it can be cancelled. Immediate (an
    [int] under the hood): keeping or dropping one costs no heap.
    Handles are guarded by a 30-bit generation counter, so a stale
    handle is only ever mistaken for a live one if its slot is recycled
    exactly [2^30] times between taking and using it. *)

val create : ?capacity:int -> unit -> t
(** [capacity] pre-sizes the slab and heap (default 64) so a run whose
    peak pending-event count is known — or was measured by telemetry's
    high-water mark — never pays for array doubling. *)

val length : t -> int
(** Number of live (non-cancelled) events still queued. *)

val is_empty : t -> bool

val high_water_mark : t -> int
(** Peak number of live events ever queued at once. Lazily cancelled
    events stop counting as soon as they are cancelled. *)

val schedule : t -> Time.t -> (unit -> unit) -> handle
(** [schedule q at action] enqueues [action] to fire at time [at].
    Allocates nothing when a recycled slot is available. *)

val schedule_keyed : t -> Time.t -> (int -> unit) -> int -> handle
(** [schedule_keyed q at f key] enqueues the application [f key].
    Components with many instances (one TCP flow among 10^5) share one
    [f] and pass their identity as [key], so re-arming a timer stores
    two words instead of capturing a fresh closure per arm.
    @raise Invalid_argument if [key = min_int] (reserved). *)

val cancel : t -> handle -> unit
(** Cancels the event; a no-op if it already fired, was cancelled, or
    the handle is stale. *)

val is_pending : t -> handle -> bool

val next_time : t -> Time.t option
(** Timestamp of the earliest live event. *)

val pop : t -> (Time.t * (unit -> unit)) option
(** Removes and returns the earliest live event. *)

(** {2 Allocation-free drain}

    {!pop} allocates an option and a pair per event; on the simulator's
    hot loop (one call per event, millions per run) that is measurable
    GC traffic. {!pop_if_before} instead returns the event's handle —
    {!nil} when there is nothing to run — so draining the queue
    allocates nothing. *)

val nil : handle
(** Sentinel meaning "no event"; compare with {!is_nil}. *)

val is_nil : handle -> bool

val int_of_handle : handle -> int
(** The handle's immediate representation, for storing in flat
    [int array] state rows (struct-of-arrays components). Round-trips
    through {!handle_of_int}; {!nil} is representable. *)

val handle_of_int : int -> handle
(** Inverse of {!int_of_handle}. Only meaningful on values produced by
    {!int_of_handle}. *)

val pop_if_before : t -> Time.t -> handle
(** [pop_if_before q horizon] removes and returns the earliest live
    event whose time is [<= horizon], or {!nil} when the queue is empty
    or the earliest event lies beyond the horizon (it stays queued).
    The returned handle is readable via {!time_of} and {!fire} only
    until the next operation on [q] (its slot is then recycled); read
    the time before running the action. *)

val time_of : t -> handle -> Time.t
(** Scheduled time of a handle just returned by {!pop_if_before}: the
    time of the event popped last, kept in {!clock}'s [now]. *)

val fire : t -> handle -> unit
(** Run the action of a handle just returned by {!pop_if_before},
    dispatching keyed actions without materialising a closure. Call
    before the next operation on the queue (same lifetime rule as
    {!time_of}). *)

(** {2 Draining}

    {!Scheduler} runs its events through {!drain}, one call per run: the
    per-event work — pop, set the clock, count, fire — happens inside
    this module, with no call across modules except the action. *)

type clock = { mutable now : Time.t; mutable stopped : bool; mutable fired : int }
(** The queue's drain state, shared with its owner as a record so that
    reading the clock or raising the stop flag is a field access, not a
    call. [now] is the time of the event popped last ({!Time.zero}
    before any); the owner may move it forward between drains. [fired]
    counts the events {!drain} has fired. *)

val clock : t -> clock
(** The queue's own drain state (the same record on every call). *)

val drain : t -> Time.t -> unit
(** [drain q horizon] pops and fires, in order, every live event whose
    time is [<= horizon], setting [(clock q).now] to each event's time
    before running its action. Events the actions schedule join the
    same drain. Returns when nothing is due by [horizon], or as soon as
    an action sets [(clock q).stopped]. *)

(** {2 Introspection}

    Capacity plumbing for pre-sizing: a run that knows its flow count
    sizes the slab once and asserts {!growth_count} stayed zero. *)

val capacity : t -> int
(** Current slab capacity (slots). *)

val growth_count : t -> int
(** Number of capacity doublings since creation; [0] means the initial
    [capacity] was never exceeded. *)

val wheel_parked : t -> int
(** Schedules absorbed by the timer wheel (vs. pushed straight onto the
    heap); a measure of how much heap churn the wheel saved. *)
