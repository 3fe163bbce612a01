(** Execute one experiment: build the dumbbell, attach the bottleneck
    {!Meter} and Poisson sources, run to the configured duration, and
    collect {!Metrics}. Both engines measure through {!Meter}. *)

val run :
  ?probe:Telemetry.Probe.t ->
  ?trace_clients:int list ->
  ?sample_queue:bool ->
  ?measure_sync:bool ->
  ?prepare:(Dumbbell.t -> unit) ->
  Config.t ->
  Scenario.t ->
  Metrics.t
(** [probe] (default absent) instruments the run: the setup/run/collect
    phases are timed, scheduler and gateway counters are folded into the
    probe's registry after the run, a [packet_delay_seconds] histogram
    is observed, and — when the probe records or its bus has subscribers
    — the bottleneck link, gateway queue and TCP senders log their events
    to a flight recorder ({!Telemetry.Probe.run_recorder}) whose parity
    records are replayed to the bus after the run. [trace_clients]
    selects client indices whose congestion-window evolution is recorded
    (ignored for UDP);
    [sample_queue] (default false) additionally samples the gateway
    queue length every 10 ms; [measure_sync] (default false) computes
    {!Metrics.t.sync_index} from per-flow gateway arrival counts.
    [prepare] runs after the topology is built but before any traffic
    flows — attach extra monitors there.

    [cfg.shards] selects the engine: 0 (the default) runs the classic
    single-domain scheduler; [K >= 1] dispatches to the sharded
    conservative-PDES engine ({!Pdes.run}), which parallelises this one
    run over [K] domains with K-invariant bit-identical results.

    Both engines run every scenario, UDP included, and build and tear
    down the clients through {!Dumbbell.build_clients} and
    {!Dumbbell.finish_clients}.

    @raise Invalid_argument before anything is built, on either engine,
    when a [trace_clients] index is outside [\[0, cfg.clients)], or when
    [prepare] is given with [cfg.shards >= 1] (there is no single
    topology object to hook into); and from the engine on an invalid
    config.
    @raise Failure when a packet or flow-table row leaked. *)
