(** A gateway queueing discipline: drop-tail FIFO, RED, or SFQ.

    The closed variant keeps link code free of functors while still letting
    tests pattern-match on the concrete discipline. Queued packets are
    {!Packet_pool.handle}s; the discipline never frees them — ownership
    of a dropped packet stays with the link. *)

type t = Droptail of Droptail.t | Red of Red.t | Sfq of Sfq.t

val droptail : capacity:int -> t

val red : rng:Sim_engine.Rng.t -> pool:Packet_pool.t -> Red.params -> t

val sfq : pool:Packet_pool.t -> capacity:int -> t
(** SFQ with {!Sfq.create}'s 16 buckets. *)

val set_recorder :
  t -> recorder:Telemetry.Recorder.t -> pool:Packet_pool.t -> name:string -> unit
(** Wire the flight recorder to the discipline's own decisions, tagged
    with [name]: RED's early drops, forced drops and ECN marks, and the
    forced drops of drop-tail and SFQ (push-out victims included). *)

val enqueue :
  t ->
  now:Sim_engine.Time.t ->
  Packet_pool.handle ->
  [ `Enqueued | `Dropped | `Enqueued_dropping of Packet_pool.handle ]
(** [`Enqueued_dropping victim] (SFQ only): the arrival was admitted at
    the cost of discarding [victim] from another queue. *)

val avg_queue : t -> float array -> unit
(** Store the discipline's EWMA average queue in [cell.(0)]: RED's
    always-on estimate (the smoothed signal its drop decisions see), or
    the optional estimate {!enable_avg} turns on for drop-tail and SFQ
    (0 until then). The oscillation detector's feed
    ({!Telemetry.Burst.Osc}); through a cell so a sample boxes no
    float. *)

val enable_avg : t -> w_q:float -> unit
(** Turn on the optional smoothed-occupancy estimate for drop-tail and
    SFQ (RED's is always on; no-op there). Same [w_q] semantics as
    RED's EWMA: each arrival samples the pre-enqueue occupancy. *)

val set_virtual_queue : t -> float -> unit
(** Hybrid-engine hook: publish the fluid background backlog (packets)
    into the discipline. RED folds it into every average-queue sample;
    a no-op for disciplines without an arrival-coupled average. *)

val virtual_update : t -> arrivals:float -> unit
(** Hybrid-engine hook: fold that many fluid background arrivals into
    RED's average (closed-form EWMA catch-up, deterministic); a no-op
    for other disciplines. *)

val dequeue : t -> now:Sim_engine.Time.t -> Packet_pool.handle
(** The head handle, or {!Packet_pool.nil} when empty. *)

val length : t -> int

val high_water_mark : t -> int
(** Peak occupancy (packets) seen so far, whatever the discipline. *)
