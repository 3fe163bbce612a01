(** A simplex store-and-forward link with an output queue.

    Packets sent on the link enter the queueing discipline; the link drains
    the queue at its bandwidth (serialization delay) and delivers each
    packet [delay] seconds after its serialization completes (propagation
    pipeline, as in ns). A full-duplex link is a pair of these.

    A hop costs one event when nothing waits behind it. At serialization
    start the link takes the turn its serialization end would hold
    ({!Sim_engine.Scheduler.take_turn}) and schedules the delivery at
    once; the end itself becomes an event, in that turn, only when a
    packet waits behind, and a packet arriving in the end's nanosecond
    asks whether that turn has passed. Events therefore fire, and
    packets dequeue, in exactly the order of a link that scheduled every
    end eagerly. Deliveries take their turn at serialization start
    rather than at its end, which keeps two same-nanosecond deliveries
    in order whenever their links' delays are equal, or differ by more
    than the packets' serialization times. A handoff link (see
    {!set_handoff}) keeps every end an event, since it hands the packet
    off there.

    Packets are {!Packet_pool.handle}s. The link {e owns every drop}: a
    packet the discipline refuses (or an SFQ eviction victim) is freed
    here, after the drop listeners have observed it. Delivered packets
    pass to [deliver], whose callee takes ownership. *)

type t

val create :
  Sim_engine.Scheduler.t ->
  name:string ->
  bandwidth:Units.bandwidth ->
  delay:Sim_engine.Time.span ->
  queue:Queue_disc.t ->
  pool:Packet_pool.t ->
  deliver:(Packet_pool.handle -> unit) ->
  t
(** [deliver] is invoked at the receiving end of the link and takes
    ownership of the handle. *)

val send : t -> Packet_pool.handle -> unit
(** Offer a packet to the link's queue; may drop (and then free) per the
    discipline. *)

val set_handoff : t -> (Sim_engine.Time.t -> Packet_pool.handle -> unit) -> unit
(** Turn the link into a PDES shard-boundary half-link: the propagation
    leg is not simulated here. Instead of scheduling a local delivery,
    each packet is handed to the callback at serialization end together
    with its computed arrival time ([now + delay]); the callback takes
    ownership (typically: copy the fields into a cross-domain ring and
    free). [deliver] is never invoked. Departure listeners still fire,
    stamped with the arrival time, exactly as they would at the far
    end. *)

val set_bg_slowdown : t -> float -> unit
(** Hybrid-engine hook: scale every subsequent serialization time by
    this factor (>= 1.), modelling the share of the line rate consumed
    by fluid background traffic ([capacity / foreground_share]). At the
    default [1.] the transmission path is bit-identical to a link
    without the hook.
    @raise Invalid_argument if the factor is below 1 or not finite. *)

val queue_length : t -> int

val queue_disc : t -> Queue_disc.t
(** The link's queue discipline — e.g. for reading the RED average
    ({!Queue_disc.avg_queue}) as an oscillation-detector signal. *)

val queue_high_water_mark : t -> int
(** Peak queue occupancy (packets) seen so far. *)

val reclaim : t -> unit
(** Free every packet still queued or in flight on this link — the
    end-of-run sweep that lets the pool's live count reach zero when the
    horizon cut the simulation mid-transfer. *)

(** {2 Instrumentation}

    Listeners observe, in order: every arrival (before the drop decision),
    every drop, and every departure (delivery at the far end). *)

val on_arrival : t -> (Sim_engine.Time.t -> Packet_pool.handle -> unit) -> unit
val on_drop : t -> (Sim_engine.Time.t -> Packet_pool.handle -> unit) -> unit
val on_depart : t -> (Sim_engine.Time.t -> Packet_pool.handle -> unit) -> unit

val arrivals : t -> int
val drops : t -> int
val departures : t -> int
val bytes_delivered : t -> int

val name : t -> string

val record : t -> Telemetry.Recorder.t -> unit
(** Write a fixed-width flight-recorder record (with the instantaneous
    queue depth) at every arrival, drop and departure; the records
    decode to [Packet] events tagged with the link's name.
    Allocation-free per event. *)
