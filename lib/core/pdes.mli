(** Sharded conservative parallel discrete-event simulation of the
    paper's dumbbell.

    {!run} partitions the client population into [cfg.shards] contiguous
    shards, each owning its clients' access links, transports, timers,
    packet pool and event queue on its own domain, while the bottleneck
    link, gateway queue discipline and every bottleneck-anchored
    measurement live in a hub simulated by rank 0. Because every packet
    crossing a domain boundary traverses a propagation leg of at least
    {!window_s} seconds, the domains advance in lock-step windows of that
    width and exchange sorted packet batches at window boundaries — a
    conservative schedule with zero rollback.

    Only the topology crossings and the window loop are this module's
    own: each shard's clients come from {!Dumbbell.build_clients} and
    are torn down by {!Dumbbell.finish_clients}, the hub measures
    through the classic engine's {!Meter}, and the gateway, delays and
    sources come from the same {!Dumbbell} definitions.

    A [K]-shard run is bit-identical to a 1-shard run of the same seed
    (both run the same windowed machinery; batches are merged in a
    canonical order independent of [K]). It is {e not} required to match
    the classic single-domain engine ([cfg.shards = 0], {!Run.run}):
    same-tick event tie-breaking differs between the two engines, so
    each pins its own trace digests. *)

val window_s : Config.t -> float
(** The conservative lookahead: the minimum cross-domain propagation
    delay, [min bottleneck_delay_s (max 1e-4 (client_delay_s -
    client_delay_spread_s / 2))]. Domains synchronise once per window. *)

val run :
  ?probe:Telemetry.Probe.t ->
  ?trace_clients:int list ->
  ?sample_queue:bool ->
  ?measure_sync:bool ->
  Config.t ->
  Scenario.t ->
  Metrics.t
(** Like {!Run.run} but sharded over [cfg.shards] domains (clamped to
    the client count; rank 0 simulates shard 0 and the hub, so
    [cfg.shards = K] uses [K] domains in total). Every scenario runs,
    UDP included. Restriction: flight recording ([Probe.set_recording])
    is not kept. The probe's bus still hears the run: each domain
    records parity events while it has subscribers, replayed after the
    run in canonical [(time, NDJSON line)] order. Call it through
    {!Run.run}, which checks [trace_clients] against the client count
    first.
    @raise Invalid_argument on [cfg.shards < 1].
    @raise Failure when a packet or flow-table row leaked. *)
