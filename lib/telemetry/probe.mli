(** A probe bundles the telemetry facilities — metric registry, event
    bus, phase timers, flight recording — into the single handle that
    threads through the simulator as a [Probe.t option]. [None] means
    telemetry is off and every helper below degrades to a no-op.

    The flight recorder is the simulator's only event hook. The bus is a
    post-run decode: after each run the probe replays the run's recorded
    parity records to its subscribers, so every consumer sees one
    stream whatever the recording mode, pool or shard count.

    Metric names used by {!note_run} are exposed as [m_*] constants so
    reporters and tests never spell them twice. *)

type recording = {
  config : Recorder.config;
  mutable segments_rev : Recorder.t list; (* newest first *)
}

type t = {
  registry : Registry.t;
  bus : Event_bus.t;
  phases : Perf.phases;
  mutable recording : recording option;
  mutable burst : Burst.config option;
}

val create : unit -> t

(** {2 Flight recording}

    A run records its events when the probe keeps a recording, or when
    the bus has subscribers — then into a private parity recorder that
    is not kept. Kept recordings start one {!Recorder.t} per run (one
    segment per run); segments accumulate on the probe in run order and
    parallel workers' segments are carried back by {!merge} in input
    order, so the final record file is deterministic and identical to a
    sequential run's. *)

val set_recording : t -> Recorder.config -> unit

val create_like : t -> t
(** A fresh probe for one point of a parallel sweep (or one rank of a
    sharded run), inheriting the recording and burst configurations.
    Workers always buffer with [Grow]; their segments
    travel via {!merge}. When the source has no recording but its bus
    has subscribers, the worker gets a parity recording so {!merge} can
    replay the worker's runs onto that bus. *)

val set_burst : t -> Burst.config option -> unit
(** Ask runs driven through this probe to maintain streaming burstiness
    telemetry ({!Burst}); the summary lands on each run's metrics, in
    [burst_*] registry gauges and (when lifecycle recording is on) in
    the flight-recorder stream. *)

val burst_config : t -> Burst.config option

val run_recorder : t -> label:string -> Recorder.t option
(** The recorder one run writes into: a new kept segment when the probe
    records, a private parity recorder when only the bus listens, [None]
    otherwise. Pass it to {!replay} after the run. *)

val trace_recorder : t -> Recorder.t option
(** A private parity recorder when the bus has subscribers, else [None]
    — one per domain for engines that replay with
    {!replay_canonical}. *)

val replay : ?spans:bool -> t -> Recorder.t -> unit
(** Publish the recorder's parity records to the bus in record order
    (a ring-mode recorder replays only what it retained); without
    subscribers, no event is decoded. With [~spans:true] (default
    [false]) the same one pass over the records also folds their
    lifecycle spans into the probe's registry ({!Spans}). *)

val replay_canonical : t -> Recorder.t list -> unit
(** Publish the parity records of several recorders sorted by
    [(time, NDJSON line)] — a total order over the events that no
    partition of the run across recorders can perturb. *)

val segments : t -> Recorder.t list
(** Accumulated segments in run order. *)

val write_segments : t -> out_channel -> unit
(** Write all segments in order (idempotent per segment). *)

val time : t option -> string -> (unit -> 'a) -> 'a
(** [time probe name f] times [f] under phase [name] when the probe is
    present, and is exactly [f ()] when it is [None]. *)

(** {2 Well-known metric names} *)

val m_runs : string  (** counter: simulation runs completed *)

val m_events : string  (** counter: scheduler events fired, all runs *)

val m_sim_seconds : string  (** gauge: simulated seconds, summed *)

val m_run_wall : string  (** gauge: wall seconds inside the run phase *)

val m_eq_hwm : string  (** gauge: event-queue high-water mark (max) *)

val m_gw_hwm : string  (** gauge: gateway-queue high-water mark (max) *)

val m_arrivals : string  (** counter: gateway packet arrivals *)

val m_drops : string  (** counter: gateway packet drops *)

val m_minor_words : string
(** gauge: minor-heap words allocated during runs, summed *)

val m_promoted_words : string
(** gauge: words promoted to the major heap during runs, summed *)

val m_major_collections : string
(** counter: major GC cycles observed during runs *)

val m_words_per_event : string
(** gauge: minor words per scheduler event, derived from the totals
    above after every {!note_run} and {!merge} — the allocation-budget
    number the bench gate watches *)

val note_run :
  t ->
  label:string ->
  sim_s:float ->
  wall_s:float ->
  events:int ->
  event_queue_hwm:int ->
  gateway_queue_hwm:int ->
  arrivals:int ->
  drops:int ->
  ?gc:Perf.gc_counters ->
  unit ->
  unit
(** Fold one completed run into the registry: bump the aggregate
    counters and gauges above and record the per-run labelled series
    [run_events_total{run=label}] and [run_wall_seconds{run=label}].
    [gc] is the GC-counter delta measured across the run phase
    (default {!Perf.gc_zero}, meaning "not measured"); it feeds the
    [gc_*] series and refreshes {!m_words_per_event}. *)

val merge : into:t -> t -> unit
(** Fold a worker probe into the main one after a parallel sweep:
    registry series merge with run-aware gauge rules (high-water marks
    take the max, seconds totals sum, other gauges keep last-write) and
    phase timers accumulate. The worker's recorded segments are replayed
    onto [into]'s bus and, when [into] keeps a recording, appended to it;
    a recording made only to feed the bus is not adopted. [src] is left
    untouched. *)

val runs_total : t -> int

val events_total : t -> int
