(** The discrete-event simulation loop.

    A scheduler owns a virtual clock and an {!Event_queue}. Simulation
    components capture the scheduler and call {!after}/{!at} to register
    future work; {!run} advances the clock from event to event.

    Events fire in (time, turn) order, where a turn is taken by every
    schedule call in program order. A component that may or may not need
    an event can take its turn now ({!take_turn}), decide later
    ({!at_turn}), and meanwhile ask whether that event would already
    have fired ({!turn_passed}): firing order is then exactly what
    scheduling the event eagerly would have given. The link uses this
    to fire a serialization end only when a packet waits behind it. *)

type t

type handle = Event_queue.handle

val nil : handle
(** Sentinel meaning "no event". Components that re-arm a timer per
    packet keep a [handle] field initialised to [nil] instead of a
    [handle option] — an immediate int where the option would allocate
    on every re-arm. *)

val is_nil : handle -> bool

val create : ?queue_capacity:int -> unit -> t
(** [queue_capacity] pre-sizes the event queue (see
    {!Event_queue.create}); pass the expected peak pending-event count
    to avoid growth copies in long runs. *)

val now : t -> Time.t
(** Current virtual time. *)

val at : t -> Time.t -> (unit -> unit) -> handle
(** [at t when_ action] schedules [action] at absolute time [when_].
    @raise Invalid_argument if [when_] is in the past. *)

val after : t -> Time.span -> (unit -> unit) -> handle
(** [after t delay action] schedules [action] [delay] from now. *)

val at_keyed : t -> Time.t -> (int -> unit) -> int -> handle
(** [at_keyed t when_ f key] schedules the application [f key] — a
    shared callback plus an immediate identity — so components with
    many instances re-arm timers without allocating a closure per arm
    (see {!Event_queue.schedule_keyed}).
    @raise Invalid_argument if [when_] is past or [key] is [min_int]. *)

val after_keyed : t -> Time.span -> (int -> unit) -> int -> handle

type turn [@@immediate]
(** A place in the firing order among events of equal time. *)

val no_turn : turn
(** A turn before every other: [(Time.zero, no_turn)] has passed from
    the scheduler's creation on, so it stands for "nothing pending". *)

val take_turn : t -> turn
(** Take the next turn without scheduling anything: an action put into
    it later with {!at_turn} fires exactly where one scheduled with
    {!at} at this moment would have, ties with same-time events
    scheduled before and after included. *)

val at_turn : t -> Time.t -> turn -> (unit -> unit) -> handle
(** [at_turn t when_ turn action] schedules [action] at [when_] in
    [turn]. Each turn takes at most one action.
    @raise Invalid_argument if [(when_, turn)] has passed. *)

val turn_passed : t -> Time.t -> turn -> bool
(** [turn_passed t when_ turn] is whether an event at [when_] in [turn]
    would already have fired: [when_] is before {!now}, or equal to it
    with [turn] at or before the event being fired. Once a {!run} that
    was not stopped has returned, every turn taken before it returned
    at or before {!now} has passed; before the first {!run}, no turn at
    {!now} has. *)

val cancel : t -> handle -> unit

val stop : t -> unit
(** Makes {!run} return after the event being processed completes. *)

val set_instrument :
  t -> on_run_start:(Time.t -> unit) -> on_run_end:(Time.t -> int -> unit) -> unit
(** Observe drain boundaries: [on_run_start clock] fires when {!run} is
    entered, [on_run_end clock fired] when it returns (with the final
    clock and the number of events fired by that drain). Called once per
    {!run}, never per event. Defaults are no-ops. *)

val run : ?until:Time.t -> t -> unit
(** Processes events in time order until the queue is empty, {!stop} is
    called, or the next event is later than [until]. When stopped by
    [until], the clock is advanced to exactly [until]. *)

val events_processed : t -> int
(** Total events fired so far; useful for instrumentation and tests. *)

val pending : t -> int
(** Live events still queued. *)

val queue_high_water_mark : t -> int
(** Peak number of live events ever queued at once. *)

val queue_capacity : t -> int
(** Current event-slab capacity (see {!Event_queue.capacity}). *)

val queue_growths : t -> int
(** Event-slab capacity doublings since creation; [0] means the
    [queue_capacity] hint covered the whole run. *)

val queue_wheel_parked : t -> int
(** Schedules absorbed by the timer wheel rather than the heap. *)
