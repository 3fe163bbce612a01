(** FIFO drop-tail queue with a packet-count capacity.

    This is the paper's baseline gateway discipline: arrivals beyond the
    buffer size [B] are dropped. *)

type t

val create : capacity:int -> t
(** @raise Invalid_argument if [capacity < 1]. *)

val set_recorder :
  t -> recorder:Telemetry.Recorder.t -> pool:Packet_pool.t -> name:string -> unit
(** Wire a flight recorder: forced-drop decisions write a
    [queue_forced_drop] record tagged with [name], carrying the
    instantaneous queue length. *)

val enqueue : now:int -> t -> Packet_pool.handle -> [ `Enqueued | `Dropped ]
(** [now] is the integer-nanosecond tick stamped on recorder records.
    It is a required label: an optional one would box [Some now] on
    every arrival. *)

val dequeue : t -> Packet_pool.handle
(** The head handle, or {!Packet_pool.nil} when empty. *)

val length : t -> int

val capacity : t -> int

val high_water_mark : t -> int
(** Peak queue occupancy (packets) seen so far. *)

val enable_avg : t -> w_q:float -> unit
(** Turn on a smoothed occupancy estimate with RED's EWMA semantics:
    each arrival samples the pre-enqueue queue length with weight [w_q].
    Off by default (one float compare on the hot path).
    @raise Invalid_argument unless [0 < w_q <= 1]. *)

val avg_into : t -> float array -> unit
(** Store the smoothed occupancy estimate in [cell.(0)] (0 unless
    {!enable_avg} was called). A cell, not a return value, so the read
    boxes no float. *)
