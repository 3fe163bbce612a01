(** Measurement taps over links.

    Monitors observe without perturbing: they subscribe to link events and
    sample queue lengths on a timer. The paper's central measurement — the
    per-RTT count of packets arriving at the gateway — is [arrival_binner]
    attached to the bottleneck link. *)

val arrival_binner :
  Packet_pool.t -> Link.t -> origin:float -> width:float -> Netstats.Binned.t
(** Counts data packets (not ACKs) arriving at the link (before the
    drop decision) into bins of [width] seconds starting at [origin]. *)

val arrival_burst : Packet_pool.t -> Link.t -> Telemetry.Burst.t -> unit
(** Streaming twin of {!arrival_binner}: folds the same data-packet
    arrival stream into a {!Telemetry.Burst} dyadic aggregator instead
    of a stored bin array — O(log T) state instead of O(horizon). *)

val osc_sampler :
  Sim_engine.Scheduler.t ->
  Telemetry.Burst.Osc.t ->
  signal:(float array -> unit) ->
  every:Sim_engine.Time.span ->
  from:float ->
  until:Sim_engine.Time.t ->
  unit
(** Feeds the oscillation detector every [every] until [until],
    skipping samples before [from] seconds (warm-up). [signal cell]
    stores the current value in [cell.(0)] (for example
    {!Queue_disc.avg_queue}). A sample allocates no minor words. *)

val queue_sampler :
  Sim_engine.Scheduler.t ->
  Link.t ->
  every:Sim_engine.Time.span ->
  until:Sim_engine.Time.t ->
  Netstats.Series.t
(** Samples the link's queue length every [every] until [until]. *)

val drop_run_recorder : Link.t -> unit -> int list
(** Tracks maximal runs of consecutive (in arrival order) drops at the
    link — the "large sequences of packet losses" of the paper's §3.4.
    The returned thunk yields all completed runs plus any run still open,
    most recent last. *)
