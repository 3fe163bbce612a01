module Time = Sim_engine.Time
module Scheduler = Sim_engine.Scheduler
module Rng = Sim_engine.Rng

let run_classic ?probe ?(trace_clients = []) ?(sample_queue = false)
    ?(measure_sync = false) ?(prepare = fun (_ : Dumbbell.t) -> ()) cfg scenario
    =
  let time name f = Telemetry.Probe.time probe name f in
  let run_label =
    Printf.sprintf "%s n=%d" (Scenario.label scenario) cfg.Config.clients
  in
  (* One recorder per run: a kept segment when the probe records, a
     private parity recorder when only its bus listens. *)
  let recorder =
    match probe with
    | Some p -> Telemetry.Probe.run_recorder p ~label:run_label
    | None -> None
  in
  let ( net,
        sched,
        bottleneck,
        horizon,
        binner,
        burst_state,
        hybrid,
        per_flow_binners,
        drop_run_list,
        delay_stats,
        delay_p99,
        queue_series,
        sources ) =
    time "setup" (fun () ->
        let net = Dumbbell.create ?recorder ~trace_clients cfg scenario in
        prepare net;
        let sched = Dumbbell.scheduler net in
        let pool = Dumbbell.pool net in
        let bottleneck = Dumbbell.bottleneck net in
        (* Only the bottleneck records per-packet queue events. *)
        (match recorder with
        | Some r ->
            Netsim.Link.record bottleneck r;
            if Telemetry.Recorder.lifecycle r then begin
              let lane = Telemetry.Recorder.lane r 0 in
              let sid = Telemetry.Recorder.intern r run_label in
              Scheduler.set_instrument sched
                ~on_run_start:(fun clock ->
                  Telemetry.Recorder.record lane ~tick:(Time.to_ns clock)
                    ~kind:Telemetry.Record.run_start ~flow:(-1) ~a:0 ~b:0 ~c:0
                    ~sid ~depth:0)
                ~on_run_end:(fun clock fired ->
                  Telemetry.Recorder.record lane ~tick:(Time.to_ns clock)
                    ~kind:Telemetry.Record.run_end ~flow:(-1) ~a:fired ~b:0
                    ~c:0 ~sid ~depth:0)
            end
        | None -> ());
        let horizon = Time.of_sec cfg.Config.duration_s in
        (* Hybrid engine: couple the fluid background population to the
           bottleneck before any sampler reads its signals. *)
        let hybrid =
          if cfg.Config.background >= 1 then
            Some (Hybrid.attach ~sched ~bottleneck cfg)
          else None
        in
        let binner =
          Netsim.Monitor.arrival_binner pool bottleneck
            ~origin:cfg.Config.warmup_s ~width:(Config.rtt_prop_s cfg)
        in
        (* Streaming burstiness telemetry, only wired when the probe
           carries a burst config. The
           aggregator's base bin is the paper's RTT timescale, so its
           level-0 c.o.v. reproduces [Metrics.cov] from the same event
           stream without storing it. *)
        let burst_state =
          match probe with
          | Some p -> (
              match Telemetry.Probe.burst_config p with
              | Some bc ->
                  let burst =
                    Telemetry.Burst.create ~levels:bc.Telemetry.Burst.levels
                      ~origin:cfg.Config.warmup_s
                      ~width:(Config.rtt_prop_s cfg) ()
                  in
                  Netsim.Monitor.arrival_burst pool bottleneck burst;
                  let osc =
                    if bc.Telemetry.Burst.osc_enabled then begin
                      let osc = Telemetry.Burst.Osc.create () in
                      (* Probe the RED control loop through its own state
                         variable: the averaged queue is what the drop
                         decision feeds back on, so its limit cycle is
                         the Hopf signature. Droptail/SFQ get the same
                         smoothed signal from their optional EWMA
                         (enabled here with RED's w_q). *)
                      let qdisc = Netsim.Link.queue_disc bottleneck in
                      (match Netsim.Queue_disc.avg_queue qdisc with
                      | None ->
                          Netsim.Queue_disc.enable_avg qdisc
                            ~w_q:cfg.Config.red_w_q
                      | Some _ -> ());
                      let base =
                        match Netsim.Queue_disc.avg_queue qdisc with
                        | Some _ ->
                            fun () ->
                              Option.value ~default:0.
                                (Netsim.Queue_disc.avg_queue qdisc)
                        | None ->
                            fun () ->
                              float_of_int
                                (Netsim.Link.queue_length bottleneck)
                      in
                      (* Under the hybrid engine the detector watches the
                         combined backlog. RED's average already folds the
                         virtual queue into its samples; other disciplines
                         add it explicitly. *)
                      let signal =
                        match (hybrid, qdisc) with
                        | ( Some h,
                            ( Netsim.Queue_disc.Droptail _
                            | Netsim.Queue_disc.Sfq _ ) ) ->
                            fun () -> base () +. Hybrid.bg_queue h
                        | _ -> base
                      in
                      Netsim.Monitor.osc_sampler ~signal sched bottleneck osc
                        ~every:(Time.of_ms 20.) ~from:cfg.Config.warmup_s
                        ~until:horizon;
                      Some osc
                    end
                    else None
                  in
                  Some (burst, osc)
              | None -> None)
          | None -> None
        in
        let per_flow_binners =
          if measure_sync && cfg.Config.clients >= 2 then begin
            let binners =
              Array.init cfg.Config.clients (fun _ ->
                  Netstats.Binned.create ~origin:cfg.Config.warmup_s
                    ~width:(Config.rtt_prop_s cfg) ())
            in
            Netsim.Link.on_arrival bottleneck (fun now h ->
                let flow = Netsim.Packet_pool.flow pool h in
                if
                  Netsim.Packet_pool.is_data pool h
                  && flow >= 0
                  && flow < Array.length binners
                then Netstats.Binned.record binners.(flow) (Time.to_sec now));
            Some binners
          end
          else None
        in
        let drop_run_list = Netsim.Monitor.drop_run_recorder bottleneck in
        let delay_stats = Netstats.Welford.create () in
        let delay_p99 = Netstats.P2_quantile.create ~q:0.99 in
        let delay_hist =
          match probe with
          | Some p ->
              Some
                (Telemetry.Registry.histogram p.Telemetry.Probe.registry
                   ~help:"Bottleneck one-way delay of data packets" ~lo:0.
                   ~hi:5. ~bins:50 "packet_delay_seconds")
          | None -> None
        in
        Netsim.Link.on_depart bottleneck (fun now h ->
            if
              Netsim.Packet_pool.is_data pool h
              && Time.to_sec now >= cfg.Config.warmup_s
            then begin
              let delay =
                Time.to_sec now
                -. Time.to_sec (Netsim.Packet_pool.sent_at pool h)
              in
              Netstats.Welford.add delay_stats delay;
              Netstats.P2_quantile.add delay_p99 delay;
              match delay_hist with
              | Some h -> Telemetry.Registry.observe h delay
              | None -> ()
            end);
        let queue_series =
          if sample_queue then
            Some
              (Netsim.Monitor.queue_sampler sched bottleneck
                 ~every:(Time.of_ms 10.) ~until:horizon)
          else None
        in
        let sources =
          List.init cfg.Config.clients (fun i ->
              let rng =
                Rng.split_named (Dumbbell.rng net)
                  (Printf.sprintf "client-%d" i)
              in
              let start =
                if cfg.Config.start_stagger_s > 0. then
                  Time.of_sec (Rng.float rng *. cfg.Config.start_stagger_s)
                else Time.zero
              in
              Traffic.Poisson.start sched ~rng
                ~mean_interarrival:cfg.Config.mean_interarrival_s ~start
                ~until:horizon ~sink:(Dumbbell.sink net i))
        in
        ( net,
          sched,
          bottleneck,
          horizon,
          binner,
          burst_state,
          hybrid,
          per_flow_binners,
          drop_run_list,
          delay_stats,
          delay_p99,
          queue_series,
          sources ))
  in
  let run_wall, run_gc =
    let g0 = Telemetry.Perf.gc_read () in
    let t0 = Telemetry.Perf.wall_clock_s () in
    Scheduler.run ~until:horizon sched;
    let dt = Telemetry.Perf.wall_clock_s () -. t0 in
    let gc = Telemetry.Perf.gc_since g0 in
    (match probe with
    | Some p -> Telemetry.Perf.add_s p.Telemetry.Probe.phases "run" dt
    | None -> ());
    (dt, gc)
  in
  (* End-of-run sweep: links free whatever the horizon left queued or in
     flight, and a nonzero live count afterwards means some layer dropped
     a handle without freeing it — fail loudly rather than leak. *)
  Dumbbell.reclaim net;
  let live = Netsim.Packet_pool.live (Dumbbell.pool net) in
  if live <> 0 then
    failwith (Printf.sprintf "Run.run: %d packet(s) leaked from the pool" live);
  let metrics =
    time "collect" (fun () ->
        let counts = Netstats.Binned.counts binner ~upto:cfg.Config.duration_s in
        (* A run shorter than the warm-up has no complete measurement bins. *)
        let cov, mean_per_bin =
          if Array.length counts < 2 then (0., 0.)
          else begin
            let summary = Netstats.Summary.of_array counts in
            (summary.Netstats.Summary.cov, summary.Netstats.Summary.mean)
          end
        in
        let cov_ci95 =
          if Array.length counts >= 20 then
            (Netstats.Batch_means.cov_interval counts)
              .Netstats.Batch_means.half_width_95
          else 0.
        in
        let offered =
          List.fold_left
            (fun acc s -> acc + s.Traffic.Source.generated ())
            0 sources
        in
        let per_client = Dumbbell.per_client_delivered net in
        let stats = Dumbbell.tcp_stats_total net in
        let arrivals = Netsim.Link.arrivals bottleneck in
        let drops = Netsim.Link.drops bottleneck in
        let loss_pct =
          if arrivals = 0 then 0.
          else 100. *. float_of_int drops /. float_of_int arrivals
        in
        let sync_index =
          match per_flow_binners with
          | None -> None
          | Some binners ->
              let rows =
                Array.map
                  (fun b -> Netstats.Binned.counts b ~upto:cfg.Config.duration_s)
                  binners
              in
              if Array.length rows.(0) < 2 then None
              else Some (Netstats.Correlation.mean_pairwise rows)
        in
        let cwnd_traces =
          List.filter_map
            (fun i ->
              match Dumbbell.tcp_sender net i with
              | Some sender ->
                  Some (i, Transport.Tcp_sender.cwnd_trace sender)
              | None -> None)
            trace_clients
        in
        let burst_summary =
          match burst_state with
          | None -> None
          | Some (burst, osc) ->
              Telemetry.Burst.advance burst ~upto:cfg.Config.duration_s;
              Some (Telemetry.Burst.summary ?osc burst)
        in
        let drop_runs = drop_run_list () in
        (* One pass for max, sum and count — the list can hold one entry
           per loss episode of a long run. *)
        let drop_max, drop_sum, drop_count =
          List.fold_left
            (fun (mx, sum, n) len -> (Stdlib.max mx len, sum + len, n + 1))
            (0, 0, 0) drop_runs
        in
        {
          Metrics.scenario;
          clients = cfg.Config.clients;
          cov;
          cov_ci95;
          analytic_cov = Analytic.poisson_cov cfg;
          mean_per_bin;
          offered;
          delivered = Dumbbell.delivered_total net;
          segments_sent = Dumbbell.segments_sent_total net;
          gateway_arrivals = arrivals;
          gateway_drops = drops;
          loss_pct;
          timeouts = stats.Transport.Tcp_stats.timeouts;
          fast_retransmits = stats.Transport.Tcp_stats.fast_retransmits;
          retransmits = stats.Transport.Tcp_stats.retransmits;
          dup_acks = stats.Transport.Tcp_stats.dup_acks;
          timeout_dupack_ratio = Transport.Tcp_stats.timeout_dupack_ratio stats;
          per_client_delivered = per_client;
          jain_fairness = Fairness.jain (Array.map float_of_int per_client);
          sync_index;
          ecn_marks = Dumbbell.gateway_marks net;
          ecn_reactions = Dumbbell.ecn_reactions_total net;
          delay_mean_s = Netstats.Welford.mean delay_stats;
          delay_p99_s =
            (if Netstats.P2_quantile.count delay_p99 = 0 then 0.
             else Netstats.P2_quantile.quantile delay_p99);
          drop_run_max = drop_max;
          drop_run_mean =
            (if drop_count = 0 then 0.
             else float_of_int drop_sum /. float_of_int drop_count);
          cwnd_traces;
          queue_series;
          burst = burst_summary;
          hybrid = Option.map Hybrid.summary hybrid;
        })
  in
  (* Burst exposition: per-run labelled gauges for the registry, plus
     summary records in the flight-recorder stream when lifecycle
     recording is on (the recorder is still live here). *)
  (match (probe, metrics.Metrics.burst) with
  | Some p, Some s ->
      Telemetry.Burst.export p.Telemetry.Probe.registry ~run:run_label s;
      (match recorder with
      | Some r when Telemetry.Recorder.lifecycle r ->
          Telemetry.Burst.record_summary
            (Telemetry.Recorder.lane r 0)
            ~tick:(Time.to_ns horizon)
            ~sid:(Telemetry.Recorder.intern r run_label)
            s
      | _ -> ())
  | _ -> ());
  (* Hybrid exposition: same shape as the burst summaries above. *)
  (match (probe, metrics.Metrics.hybrid) with
  | Some p, Some s ->
      Hybrid.export p.Telemetry.Probe.registry ~run:run_label s;
      (match recorder with
      | Some r when Telemetry.Recorder.lifecycle r ->
          Hybrid.record_summary
            (Telemetry.Recorder.lane r 0)
            ~tick:(Time.to_ns horizon)
            ~sid:(Telemetry.Recorder.intern r run_label)
            s
      | _ -> ())
  | _ -> ());
  (* Lifecycle spans fold the retained records into the probe's metric
     registry while the recorder is still live (tick counters restart
     per segment, so this must happen per run). *)
  (match (probe, recorder) with
  | Some p, Some r when Telemetry.Recorder.lifecycle r ->
      time "spans" (fun () ->
          Telemetry.Spans.of_recorder ~registry:p.Telemetry.Probe.registry r)
  | _ -> ());
  (* The bus hears the run only now, from its recorded parity records. *)
  (match (probe, recorder) with
  | Some p, Some r -> Telemetry.Probe.replay p r
  | _ -> ());
  (match probe with
  | Some p ->
      Telemetry.Probe.note_run p ~label:run_label
        ~sim_s:cfg.Config.duration_s ~wall_s:run_wall
        ~events:(Scheduler.events_processed sched)
        ~event_queue_hwm:(Scheduler.queue_high_water_mark sched)
        ~gateway_queue_hwm:(Dumbbell.gateway_queue_high_water_mark net)
        ~arrivals:(Netsim.Link.arrivals bottleneck)
        ~drops:(Netsim.Link.drops bottleneck)
        ~gc:run_gc ()
  | None -> ());
  (* Flow-table sweep, after every metric that reads sender/receiver
     rows: detach all endpoints and assert the slabs drained — the
     flow-level twin of the packet-pool leak check above. *)
  Dumbbell.release_flows net;
  let flows_live = Dumbbell.flows_live net in
  if flows_live <> 0 then
    failwith
      (Printf.sprintf "Run.run: %d flow row(s) leaked from the flow tables"
         flows_live);
  metrics

(* [cfg.shards] selects the engine: 0 keeps the classic single-domain
   scheduler (and its pinned trace digests); K >= 1 runs the sharded
   conservative-PDES engine. [prepare] hooks into the classic topology
   object, which the sharded engine does not build. *)
let run ?probe ?trace_clients ?sample_queue ?measure_sync ?prepare cfg scenario
    =
  if cfg.Config.shards >= 1 then begin
    (match prepare with
    | Some _ ->
        invalid_arg
          "Run.run: ?prepare hooks into the classic engine's topology; it is \
           not supported when cfg.shards >= 1"
    | None -> ());
    Pdes.run ?probe ?trace_clients ?sample_queue ?measure_sync cfg scenario
  end
  else
    run_classic ?probe ?trace_clients ?sample_queue ?measure_sync ?prepare cfg
      scenario
