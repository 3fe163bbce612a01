(** Drivers that regenerate each table and figure of the paper.

    Figures 2, 3, 4 and 13 are columns of one (scenario x clients) sweep,
    so callers run {!run_sweep} once and render each figure from it.
    Figures 5–12 are single runs with congestion-window tracing. *)

type sweep_result = (Scenario.t * Metrics.t list) list

val default_client_counts : int list
(** The swept x-axis: 2..60 clients, denser around the 38/39 crossover. *)

val run_sweep :
  ?pool:Parallel.Pool.Team.t ->
  ?probe:Telemetry.Probe.t ->
  ?notify:(string -> unit) ->
  ?progress:(string -> unit) ->
  Config.t ->
  int list ->
  sweep_result
(** Runs the six paper scenarios over the given client counts.
    [progress] is called with a scenario label before each series;
    [notify] with a point label after each individual run (see
    {!Sweep.over_clients}); [probe] instruments every run. With a worker
    team as [pool], points from every series run concurrently (results
    unchanged — see {!Sweep}); [progress] then fires for all series up
    front. *)

val table1 : Format.formatter -> Config.t -> unit

val fig2 : Format.formatter -> sweep_result -> Config.t -> unit
(** Coefficient of variation of the aggregated traffic vs #clients,
    including the analytic Poisson baseline. *)

val fig2_replicated :
  ?pool:Parallel.Pool.Team.t ->
  ?probe:Telemetry.Probe.t ->
  ?notify:(string -> unit) ->
  Format.formatter ->
  Config.t ->
  int list ->
  replicates:int ->
  unit
(** Figure 2 with [replicates] independent seeds per point, reported as
    mean +/- sample standard deviation. Runs its own sweep, fanned over
    the worker team [pool] when given (see {!Sweep}). *)

val fig3 : Format.formatter -> sweep_result -> unit
(** Total packets successfully delivered vs #clients (TCP variants). *)

val fig4 : Format.formatter -> sweep_result -> unit
(** Packet-loss percentage at the gateway vs #clients (TCP variants). *)

val fig13 : Format.formatter -> sweep_result -> unit
(** Ratio of timeouts to duplicate ACKs vs #clients (TCP variants). *)

val fig_cwnd :
  ?probe:Telemetry.Probe.t ->
  Format.formatter ->
  Config.t ->
  scenario:Scenario.t ->
  clients:int ->
  label:string ->
  unit
(** Congestion-window evolution for three representative clients (first,
    middle, last), as in Figures 5–12. *)

val cwnd_figures : (int * Scenario.t * int) list
(** [(figure number, scenario, clients)] for Figures 5–12. *)

val queue_occupancy :
  ?probe:Telemetry.Probe.t -> Format.formatter -> Config.t -> clients:int -> unit
(** Extension figure: gateway queue-length evolution for Reno vs Vegas at
    the same load, with summary statistics — §3.3's claim that Vegas needs
    far less buffer, shown directly. *)
