(** Random Early Detection gateway queue (Floyd & Jacobson 1993).

    Maintains an exponentially weighted moving average of the instantaneous
    queue length. Below [min_th] all arrivals are queued; between [min_th]
    and [max_th] arrivals are dropped with a probability that rises linearly
    to [max_p] (spread out with the count mechanism of the original paper);
    at or above [max_th] every arrival is dropped. A physical [capacity]
    bounds the real queue as well. *)

type params = {
  min_th : float;  (** packets *)
  max_th : float;  (** packets *)
  max_p : float;  (** drop probability at [max_th] *)
  w_q : float;  (** EWMA weight, e.g. 0.002 *)
  capacity : int;  (** physical buffer, packets *)
  idle_packet_time : float;
      (** seconds a typical packet takes to transmit; used to age the
          average across idle periods *)
  ecn_mark : bool;
      (** mark ECN-capable packets instead of early-dropping them
          (RFC 3168); forced drops (avg >= max_th or physical overflow)
          still drop *)
  adaptive : bool;
      (** Self-Configuring RED (Feng, Kandlur, Saha & Shin, INFOCOM '99 —
          reference [5] of the paper): scale [max_p] down by 3 whenever the
          average falls below [min_th] and up by 2 whenever it exceeds
          [max_th], keeping the average inside the target band *)
}

type t

val create : rng:Sim_engine.Rng.t -> pool:Packet_pool.t -> params -> t
(** Packets are handles into [pool]. *)

val set_recorder : t -> recorder:Telemetry.Recorder.t -> name:string -> unit
(** Wire a flight recorder: every internal decision — early drop, forced
    drop (overflow or [avg >= max_th]), ECN mark — writes a [queue_*]
    record tagged with [name], carrying the average-queue estimate at
    the decision as exact IEEE-754 bits. *)

val enqueue :
  t -> now:Sim_engine.Time.t -> Packet_pool.handle -> [ `Enqueued | `Dropped ]
(** In [ecn_mark] mode an early "drop" of an ECN-capable packet instead
    sets its CE bit and enqueues it. A [`Dropped] packet is {e not}
    freed here: the link owns the drop and frees after notifying its
    listeners. *)

val dequeue : t -> now:Sim_engine.Time.t -> Packet_pool.handle
(** The head handle, or {!Packet_pool.nil} when empty. *)

val length : t -> int

val avg : t -> float
(** Current average queue estimate (for tests and monitoring). *)

val set_virtual_queue : t -> float -> unit
(** Hybrid-engine hook: set the virtual background backlog (packets,
    clamped at 0). While non-zero it is added to every average-queue
    sample and suppresses idle aging; at 0 (the default) behaviour is
    bit-identical to plain RED. *)

val virtual_update : t -> arrivals:float -> unit
(** Hybrid-engine hook: fold [arrivals] fluid background arrivals into
    the average — the closed form of that many EWMA samples at the
    current combined (physical + virtual) depth. Keeps the EWMA pole
    tracking the {e total} arrival rate when only the foreground flows
    are physical. Deterministic (no RNG); a no-op when [arrivals <= 0]. *)

val marks : t -> int
(** Packets CE-marked so far (always 0 unless [ecn_mark]). *)

val current_max_p : t -> float
(** The live [max_p] (changes over time under [adaptive]). *)

val high_water_mark : t -> int
(** Peak physical queue occupancy (packets) seen so far. *)
