module Time = Sim_engine.Time
module Link = Netsim.Link
module Queue_disc = Netsim.Queue_disc
module Packet_pool = Netsim.Packet_pool

type t = {
  cfg : Config.t;
  bottleneck : Link.t;
  hybrid : Hybrid.t option;
  binner : Netstats.Binned.t;
  burst : (Telemetry.Burst.t * Telemetry.Burst.Osc.t) option;
  sync_binners : Netstats.Binned.t array option;
  drop_runs : unit -> int list;
  delay : Netstats.Welford.t;
  delay_p99 : Netstats.P2_quantile.t;
  queue_series : Netstats.Series.t option;
}

(* The oscillation detector watches the RED control loop's own state,
   the averaged queue, whose limit cycle is the Hopf signature; drop-tail
   and SFQ get theirs from an EWMA switched on with RED's w_q. Under the
   hybrid engine it watches the combined backlog: RED's average already
   folds the virtual queue in, the other disciplines add it here. *)
let osc_signal cfg bottleneck hybrid =
  let qdisc = Link.queue_disc bottleneck in
  Queue_disc.enable_avg qdisc ~w_q:cfg.Config.red_w_q;
  match (hybrid, qdisc) with
  | Some h, (Queue_disc.Droptail _ | Queue_disc.Sfq _) ->
      fun cell ->
        Queue_disc.avg_queue qdisc cell;
        cell.(0) <- cell.(0) +. Hybrid.bg_queue h
  | _ -> Queue_disc.avg_queue qdisc

let attach ?probe ~sample_queue ~measure_sync ~sched ~pool bottleneck cfg =
  let horizon = Time.of_sec cfg.Config.duration_s in
  let origin = cfg.Config.warmup_s and width = Config.rtt_prop_s cfg in
  (* The fluid background couples to the bottleneck before any sampler
     reads its signals. *)
  let hybrid =
    if cfg.Config.background >= 1 then
      Some (Hybrid.attach ~sched ~bottleneck cfg)
    else None
  in
  let binner = Netsim.Monitor.arrival_binner pool bottleneck ~origin ~width in
  (* The streaming aggregator's base bin is the paper's RTT timescale, so
     its level-0 c.o.v. reproduces [Metrics.cov] from the same arrival
     stream without storing it. *)
  let burst =
    match Option.bind probe Telemetry.Probe.burst_config with
    | None -> None
    | Some bc ->
        let burst =
          Telemetry.Burst.create ~levels:bc.Telemetry.Burst.levels ~origin
            ~width ()
        in
        Netsim.Monitor.arrival_burst pool bottleneck burst;
        let osc = Telemetry.Burst.Osc.create () in
        Netsim.Monitor.osc_sampler sched osc
          ~signal:(osc_signal cfg bottleneck hybrid)
          ~every:(Time.of_ms 20.) ~from:origin ~until:horizon;
        Some (burst, osc)
  in
  let sync_binners =
    if measure_sync && cfg.Config.clients >= 2 then begin
      let binners =
        Array.init cfg.Config.clients (fun _ ->
            Netstats.Binned.create ~origin ~width ())
      in
      Link.on_arrival bottleneck (fun now h ->
          let flow = Packet_pool.flow pool h in
          if
            Packet_pool.is_data pool h && flow >= 0
            && flow < Array.length binners
          then Netstats.Binned.record binners.(flow) (Time.to_sec now));
      Some binners
    end
    else None
  in
  let drop_runs = Netsim.Monitor.drop_run_recorder bottleneck in
  let delay = Netstats.Welford.create () in
  let delay_p99 = Netstats.P2_quantile.create ~q:0.99 in
  let delay_hist =
    Option.map
      (fun p ->
        Telemetry.Registry.histogram p.Telemetry.Probe.registry
          ~help:"Bottleneck one-way delay of data packets" ~lo:0. ~hi:5.
          ~bins:50 "packet_delay_seconds")
      probe
  in
  (* Per departure, so no closure here: capturing [d] would box it. *)
  Link.on_depart bottleneck (fun now h ->
      if Packet_pool.is_data pool h && Time.to_sec now >= origin then begin
        let d = Time.to_sec now -. Time.to_sec (Packet_pool.sent_at pool h) in
        Netstats.Welford.add delay d;
        Netstats.P2_quantile.add delay_p99 d;
        match delay_hist with
        | Some hist -> Telemetry.Registry.observe hist d
        | None -> ()
      end);
  let queue_series =
    if sample_queue then
      Some
        (Netsim.Monitor.queue_sampler sched bottleneck ~every:(Time.of_ms 10.)
           ~until:horizon)
    else None
  in
  { cfg; bottleneck; hybrid; binner; burst; sync_binners; drop_runs; delay;
    delay_p99; queue_series }

type endpoints = {
  offered : int;
  per_client_delivered : int array;
  tcp_stats : Transport.Tcp_stats.t;
  segments_sent : int;
  ecn_reactions : int;
  cwnd_traces : (int * Netstats.Series.t) list;
}

let metrics t scenario e =
  let cfg = t.cfg in
  let upto = cfg.Config.duration_s in
  let counts = Netstats.Binned.counts t.binner ~upto in
  (* A run shorter than the warm-up has no complete measurement bins. *)
  let cov, mean_per_bin =
    if Array.length counts < 2 then (0., 0.)
    else
      let s = Netstats.Summary.of_array counts in
      (s.Netstats.Summary.cov, s.Netstats.Summary.mean)
  in
  let cov_ci95 =
    if Array.length counts >= 20 then
      (Netstats.Batch_means.cov_interval counts)
        .Netstats.Batch_means.half_width_95
    else 0.
  in
  let arrivals = Link.arrivals t.bottleneck in
  let drops = Link.drops t.bottleneck in
  let sync_index =
    match t.sync_binners with
    | None -> None
    | Some binners ->
        let rows =
          Array.map (fun b -> Netstats.Binned.counts b ~upto) binners
        in
        if Array.length rows.(0) < 2 then None
        else Some (Netstats.Correlation.mean_pairwise rows)
  in
  (* One pass for max, sum and count — the list can hold one entry per
     loss episode of a long run. *)
  let drop_max, drop_sum, drop_count =
    List.fold_left
      (fun (mx, sum, n) len -> (Stdlib.max mx len, sum + len, n + 1))
      (0, 0, 0) (t.drop_runs ())
  in
  let stats = e.tcp_stats in
  {
    Metrics.scenario;
    clients = cfg.Config.clients;
    cov;
    cov_ci95;
    analytic_cov = Analytic.poisson_cov cfg;
    mean_per_bin;
    offered = e.offered;
    delivered = Array.fold_left ( + ) 0 e.per_client_delivered;
    segments_sent = e.segments_sent;
    gateway_arrivals = arrivals;
    gateway_drops = drops;
    loss_pct =
      (if arrivals = 0 then 0.
       else 100. *. float_of_int drops /. float_of_int arrivals);
    timeouts = stats.Transport.Tcp_stats.timeouts;
    fast_retransmits = stats.Transport.Tcp_stats.fast_retransmits;
    retransmits = stats.Transport.Tcp_stats.retransmits;
    dup_acks = stats.Transport.Tcp_stats.dup_acks;
    timeout_dupack_ratio = Transport.Tcp_stats.timeout_dupack_ratio stats;
    per_client_delivered = e.per_client_delivered;
    jain_fairness =
      Fairness.jain (Array.map float_of_int e.per_client_delivered);
    sync_index;
    ecn_marks =
      (match Link.queue_disc t.bottleneck with
      | Queue_disc.Red red -> Netsim.Red.marks red
      | Queue_disc.Droptail _ | Queue_disc.Sfq _ -> 0);
    ecn_reactions = e.ecn_reactions;
    delay_mean_s = Netstats.Welford.mean t.delay;
    delay_p99_s =
      (if Netstats.P2_quantile.count t.delay_p99 = 0 then 0.
       else Netstats.P2_quantile.quantile t.delay_p99);
    drop_run_max = drop_max;
    drop_run_mean =
      (if drop_count = 0 then 0.
       else float_of_int drop_sum /. float_of_int drop_count);
    cwnd_traces = e.cwnd_traces;
    queue_series = t.queue_series;
    burst =
      Option.map
        (fun (burst, osc) ->
          Telemetry.Burst.advance burst ~upto;
          Telemetry.Burst.summary ~osc burst)
        t.burst;
    hybrid = Option.map Hybrid.summary t.hybrid;
  }

let export ?recorder t p ~label (m : Metrics.t) =
  let registry = p.Telemetry.Probe.registry in
  (* Summary records go to lane 0 at the horizon, and only when the
     recorder keeps lifecycle kinds (it is still live here). *)
  let record f s =
    match recorder with
    | Some r when Telemetry.Recorder.lifecycle r ->
        f (Telemetry.Recorder.lane r 0)
          ~tick:(Time.to_ns (Time.of_sec t.cfg.Config.duration_s))
          ~sid:(Telemetry.Recorder.intern r label)
          s
    | _ -> ()
  in
  Option.iter
    (fun s ->
      Telemetry.Burst.export registry ~run:label s;
      record Telemetry.Burst.record_summary s)
    m.Metrics.burst;
  Option.iter
    (fun s ->
      Hybrid.export registry ~run:label s;
      record Hybrid.record_summary s)
    m.Metrics.hybrid

let note_run t p ~label ~wall_s ~events ~event_queue_hwm ~gc =
  Telemetry.Probe.note_run p ~label ~sim_s:t.cfg.Config.duration_s ~wall_s
    ~events ~event_queue_hwm
    ~gateway_queue_hwm:
      (Queue_disc.high_water_mark (Link.queue_disc t.bottleneck))
    ~arrivals:(Link.arrivals t.bottleneck) ~drops:(Link.drops t.bottleneck)
    ~gc ()
