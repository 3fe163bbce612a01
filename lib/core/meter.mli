(** Bottleneck measurement, shared by both engines.

    Every number the paper reports is read off the gateway → server
    bottleneck. A meter wires every monitor on that link and builds the
    run's {!Metrics.t} from them plus the endpoint totals only the engine
    can count, so {!Run.run}'s classic engine and {!Pdes.run} keep only
    their topology and scheduling loop. *)

type t

val attach :
  ?probe:Telemetry.Probe.t ->
  sample_queue:bool ->
  measure_sync:bool ->
  sched:Sim_engine.Scheduler.t ->
  pool:Netsim.Packet_pool.t ->
  Netsim.Link.t ->
  Config.t ->
  t
(** Wires, in order: {!Hybrid.attach} ([cfg.background >= 1]); the
    per-RTT arrival binner; the probe's burst aggregator and oscillation
    detector (20 ms samples of the gateway's averaged queue); per-flow
    sync binners ([measure_sync]); the drop-run recorder; the delay mean,
    P² p99 and [packet_delay_seconds] histogram; the 10 ms queue sampler
    ([sample_queue]). [sched] and [pool] are the bottleneck's; attach
    before any traffic source. *)

type endpoints = {
  offered : int;  (** packets the applications generated *)
  per_client_delivered : int array;
  tcp_stats : Transport.Tcp_stats.t;  (** summed over senders *)
  segments_sent : int;  (** data packets put on the wire *)
  ecn_reactions : int;
  cwnd_traces : (int * Netstats.Series.t) list;
}
(** The per-endpoint totals after the run, counted by the engine. *)

val metrics : t -> Scenario.t -> endpoints -> Metrics.t
(** Close the monitors at [cfg.duration_s] and build the metrics; the
    gateway counts and ECN marks come from the bottleneck's queue
    discipline. Call once, after the run. *)

val export :
  ?recorder:Telemetry.Recorder.t ->
  t ->
  Telemetry.Probe.t ->
  label:string ->
  Metrics.t ->
  unit
(** The burst and hybrid summaries as per-run registry gauges and, when
    [recorder] keeps lifecycle kinds, as summary records on its lane 0. *)

val note_run :
  t ->
  Telemetry.Probe.t ->
  label:string ->
  wall_s:float ->
  events:int ->
  event_queue_hwm:int ->
  gc:Telemetry.Perf.gc_counters ->
  unit
(** {!Telemetry.Probe.note_run} with the bottleneck's share filled in. *)
