module Time = Sim_engine.Time
module Scheduler = Sim_engine.Scheduler
module Rng = Sim_engine.Rng

type source_kind = Poisson_src | Pareto_src

type row = {
  source : source_kind;
  scenario : Scenario.t;
  hurst : float;
  cov : float;
  idc : (int * float option) list;
}

let source_label = function
  | Poisson_src -> "Poisson"
  | Pareto_src -> "Pareto on/off"

let bin_width = 0.01

(* 15 dyadic levels over 10 ms bins span 10 ms .. ~164 s; the IDC
   profile reports the scales nearest the old {1, 10, 100, 1000}-bin
   profile. *)
let fine_levels = 15

let idc_levels = [ 0; 4; 7; 10 ] (* block sizes 1, 16, 128, 1024 bins *)

(* Same per-client mean rate as the Poisson workload, but with heavy-tailed
   (shape 1.5, infinite variance) ON and OFF durations. *)
let pareto_params cfg =
  let mean_rate = 1. /. cfg.Config.mean_interarrival_s in
  {
    Traffic.Onoff_pareto.on_shape = 1.5;
    on_mean = 0.5;
    off_shape = 1.5;
    off_mean = 0.5;
    rate = 2. *. mean_rate;
  }

let attach_sources cfg kind net sched horizon =
  List.iter
    (fun i ->
      let master = Dumbbell.rng net and sink = Dumbbell.sink net i in
      match kind with
      | Poisson_src -> ignore (Dumbbell.poisson_source cfg ~master sched i ~sink)
      | Pareto_src ->
          ignore
            (Traffic.Onoff_pareto.start sched
               ~rng:(Rng.split_named master (Printf.sprintf "client-%d" i))
               ~params:(pareto_params cfg) ~start:Time.zero ~until:horizon ~sink))
    (List.init cfg.Config.clients Fun.id)

(* Everything streams: a fine-grained dyadic aggregator (10 ms base
   bins) yields the wavelet Hurst slope and the IDC profile, and a
   second one-level aggregator at the paper's RTT bin yields the
   c.o.v. — nothing O(horizon) is stored, so the measurement scales to
   mean-field horizons. The RTT aggregator partitions time identically
   to the old stored-array re-aggregation (same origin, same
   complete-bin truncation), so the c.o.v. column is unchanged. *)
let measure cfg kind scenario =
  let net = Dumbbell.create cfg scenario in
  let sched = Dumbbell.scheduler net in
  let horizon = Time.of_sec cfg.Config.duration_s in
  let pool = Dumbbell.pool net and bottleneck = Dumbbell.bottleneck net in
  let fine =
    Telemetry.Burst.create ~levels:fine_levels ~origin:cfg.Config.warmup_s
      ~width:bin_width ()
  in
  let rtt =
    Telemetry.Burst.create ~levels:1 ~origin:cfg.Config.warmup_s
      ~width:(Config.rtt_prop_s cfg) ()
  in
  Netsim.Monitor.arrival_burst pool bottleneck fine;
  Netsim.Monitor.arrival_burst pool bottleneck rtt;
  attach_sources cfg kind net sched horizon;
  Scheduler.run ~until:horizon sched;
  Dumbbell.finish net ignore;
  Telemetry.Burst.advance fine ~upto:cfg.Config.duration_s;
  Telemetry.Burst.advance rtt ~upto:cfg.Config.duration_s;
  {
    source = kind;
    scenario;
    hurst =
      (match Telemetry.Burst.hurst_wavelet fine with
      | Some h -> h
      | None -> 0.5);
    cov = (match Telemetry.Burst.cov rtt 0 with Some c -> c | None -> 0.);
    idc = List.map (fun j -> (1 lsl j, Telemetry.Burst.idc fine j)) idc_levels;
  }

let combos = [ (Poisson_src, Scenario.udp); (Pareto_src, Scenario.udp);
               (Poisson_src, Scenario.reno); (Pareto_src, Scenario.reno) ]

let report ppf cfg =
  let cfg = if cfg.Config.clients < 2 then Config.with_clients cfg 30 else cfg in
  Format.fprintf ppf
    "Self-similarity extension: %d clients, %g s, 10 ms arrival bins@.@."
    cfg.Config.clients cfg.Config.duration_s;
  let rows =
    List.map
      (fun (kind, scenario) ->
        let row = measure cfg kind scenario in
        [
          source_label kind;
          Scenario.label scenario;
          Render.fmt_float row.hurst;
          Render.fmt_float row.cov;
          String.concat " "
            (List.map
               (fun (m, v) ->
                 match v with
                 | Some v -> Printf.sprintf "%d:%.2f" m v
                 | None -> Printf.sprintf "%d:-" m)
               row.idc);
        ])
      combos
  in
  Render.table ppf
    ~header:[ "source"; "transport"; "H (wavelet)"; "cov@RTT"; "IDC m:v" ]
    ~rows
