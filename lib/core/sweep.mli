(** Parameter sweeps over client counts and scenarios.

    Every run gets a distinct deterministic seed derived from the base
    configuration's seed, the scenario label and the client count, so
    series are independent but reproducible.

    {b Parallel execution.} Each sweep takes an optional worker team,
    [?pool] ({!Parallel.Pool.Team.t}, the one domain runtime that also
    runs [--shards]). Without one (or with a one-domain team) points run
    sequentially on the calling domain. With a team, the points are one
    {!Parallel.Pool.Team.map}: every rank claims the next point, and
    because every point derives its own seed and owns its own simulation
    state, the returned metric lists and {!replicated} records are
    bit-identical to the sequential path.
    When a [probe] is given, each point records into a private probe
    and the workers' telemetry folds into [probe] (in input order) when
    the sweep returns; [notify] may fire from worker domains, serialized
    so calls never overlap, but in a nondeterministic order. *)

val seed_for : Config.t -> Scenario.t -> int -> int64

val over_clients :
  ?pool:Parallel.Pool.Team.t ->
  ?probe:Telemetry.Probe.t ->
  ?notify:(string -> unit) ->
  Config.t ->
  Scenario.t ->
  int list ->
  Metrics.t list
(** One run per client count. [probe] instruments each run (see
    {!Run.run}); [notify] is called with a point label ("scenario n=N")
    after each run completes — hook progress reporting there. *)

val grid :
  ?pool:Parallel.Pool.Team.t ->
  ?probe:Telemetry.Probe.t ->
  ?notify:(string -> unit) ->
  Config.t ->
  Scenario.t list ->
  int list ->
  (Scenario.t * Metrics.t list) list
(** The full (scenario x clients) grid driving Figures 2, 3, 4 and 13.
    With a team, the grid is flattened so every (scenario, clients)
    point can run concurrently, not just points within one series. *)

(** {2 Replicated runs}

    Single runs of the c.o.v. statistic carry ~5-10 % sampling noise (a
    200 s run has only ~170 RTT bins); replication separates protocol
    effects from seed luck. *)

type replicated = {
  scenario : Scenario.t;
  clients : int;
  replicates : int;
  cov_mean : float;
  cov_std : float;
  delivered_mean : float;
  loss_mean : float;
  loss_std : float;
  timeout_dupack_mean : float;
}

val replicated :
  ?pool:Parallel.Pool.Team.t ->
  ?probe:Telemetry.Probe.t ->
  ?notify:(string -> unit) ->
  Config.t ->
  Scenario.t ->
  replicates:int ->
  int list ->
  replicated list
(** [replicates] independent seeds per (scenario, client-count) point;
    [notify] fires after every replicate ("scenario n=N r=R"). With a
    team, individual replicates run concurrently and the per-point
    summaries are folded afterwards in replicate order.
    @raise Invalid_argument if [replicates < 1]. *)
