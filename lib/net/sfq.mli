(** Stochastic Fairness Queueing (McKenney 1990).

    Flows are hashed into a fixed set of buckets served round-robin, so no
    single flow can monopolize the gateway and — relevant to the paper —
    flows no longer observe loss at the same instants, which should break
    the congestion-decision synchronization §3.2 blames for Reno's
    burstiness. On overflow the packet at the head of the longest bucket
    is discarded (penalizing the heaviest flow); the arriving packet is
    then admitted unless its own bucket is the longest. *)

type t

val create : ?buckets:int -> pool:Packet_pool.t -> capacity:int -> unit -> t
(** [buckets] defaults to 16 (tests pass fewer to force hash
    collisions); packets are handles into [pool].
    @raise Invalid_argument if [capacity < 1] or [buckets < 1]. *)

val set_recorder : t -> recorder:Telemetry.Recorder.t -> name:string -> unit
(** Wire a flight recorder: drop decisions (including push-out victims)
    write a [queue_forced_drop] record tagged with [name], carrying the
    total occupancy. *)

val enqueue :
  now:int ->
  t ->
  Packet_pool.handle ->
  [ `Enqueued | `Dropped | `Enqueued_dropping of Packet_pool.handle ]
(** [`Enqueued_dropping victim]: the arriving packet was admitted but
    [victim] (from the longest bucket) was discarded to make room. The
    victim is not freed here — the link owns the drop. [now] is the
    integer-nanosecond tick stamped on recorder records (a required
    label, so no arrival boxes it). *)

val dequeue : t -> Packet_pool.handle
(** Round-robin across non-empty buckets; {!Packet_pool.nil} when
    empty. *)

val length : t -> int

val bucket_of_flow : t -> int -> int
(** Which bucket a flow hashes to (for tests). *)

val occupancy : t -> int array
(** Per-bucket queue lengths. *)

val high_water_mark : t -> int
(** Peak total occupancy (packets across all buckets) seen so far. *)

val enable_avg : t -> w_q:float -> unit
(** Turn on a smoothed total-occupancy estimate with RED's EWMA
    semantics: each arrival samples the pre-enqueue total with weight
    [w_q]. Off by default.
    @raise Invalid_argument unless [0 < w_q <= 1]. *)

val avg_into : t -> float array -> unit
(** Store the smoothed occupancy estimate in [cell.(0)] (0 unless
    {!enable_avg} was called). A cell, not a return value, so the read
    boxes no float. *)
