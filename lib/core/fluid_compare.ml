module Time = Sim_engine.Time
module Scheduler = Sim_engine.Scheduler

type comparison = {
  flows : int;
  protocol : string;
  fluid_window : float;
  measured_window : float;
  fluid_queue : float;
  measured_queue : float;
  fluid_throughput_pps : float;
  measured_throughput_pps : float;
}

(* Run greedy flows and measure steady state over the second half. The
   fluid models assume windows are congestion-limited, so the advertised
   window is lifted well above the bandwidth-delay product. *)
let measure cfg scenario ~flows =
  let cfg = { (Config.with_clients cfg flows) with Config.adv_window = 600 } in
  (* Every flow's cwnd trace is consumed below, so tracing must be on for
     all of them (it is opt-in per client since the trace allocates). *)
  let net = Dumbbell.create ~trace_clients:(List.init flows Fun.id) cfg scenario in
  let sched = Dumbbell.scheduler net in
  let horizon = Time.of_sec cfg.Config.duration_s in
  let half = cfg.Config.duration_s /. 2. in
  let queue_series =
    Netsim.Monitor.queue_sampler sched (Dumbbell.bottleneck net)
      ~every:(Time.of_ms 10.) ~until:horizon
  in
  List.iter
    (fun i ->
      ignore
        (Traffic.Bulk.start sched ~size:Traffic.Bulk.infinite_backlog_size
           ~start:Time.zero ~sink:(Dumbbell.sink net i)))
    (List.init flows Fun.id);
  let delivered_at_half = ref 0 in
  ignore
    (Scheduler.at sched (Time.of_sec half) (fun () ->
         delivered_at_half := Dumbbell.delivered_total net));
  Scheduler.run ~until:horizon sched;
  Dumbbell.finish net (fun e ->
      let mean_window =
        let per_flow =
          List.filter_map
            (fun (_, trace) ->
              let steady =
                List.map snd
                  (Netstats.Series.between trace half cfg.Config.duration_s)
              in
              if steady = [] then None
              else
                Some
                  (List.fold_left ( +. ) 0. steady
                  /. float_of_int (List.length steady)))
            e.Meter.cwnd_traces
        in
        List.fold_left ( +. ) 0. per_flow /. float_of_int (List.length per_flow)
      in
      let mean_queue =
        let steady =
          Netstats.Series.between queue_series half cfg.Config.duration_s
        in
        List.fold_left (fun acc (_, v) -> acc +. v) 0. steady
        /. float_of_int (Stdlib.max 1 (List.length steady))
      in
      let throughput =
        float_of_int
          (Array.fold_left ( + ) 0 e.Meter.per_client_delivered
          - !delivered_at_half)
        /. (cfg.Config.duration_s -. half)
      in
      (mean_window, mean_queue, throughput))

let compare_reno cfg ~flows =
  let params =
    {
      Fluidmodel.Reno_fluid.flows;
      capacity_pps = Hybrid.capacity_pps cfg;
      base_rtt_s = Config.rtt_prop_s cfg;
      buffer_packets = float_of_int cfg.Config.buffer_packets;
      red_min_th = cfg.Config.red_min_th;
      red_max_th = cfg.Config.red_max_th;
      red_max_p = cfg.Config.red_max_p;
      avg_gain = 10.;
    }
  in
  let eq = Fluidmodel.Reno_fluid.equilibrium params in
  let w, q, thr = measure cfg Scenario.reno_red ~flows in
  {
    flows;
    protocol = "Reno/RED";
    fluid_window = eq.Fluidmodel.Reno_fluid.eq_window;
    measured_window = w;
    fluid_queue = eq.Fluidmodel.Reno_fluid.eq_queue;
    measured_queue = q;
    fluid_throughput_pps = eq.Fluidmodel.Reno_fluid.eq_throughput_pps;
    measured_throughput_pps = thr;
  }

let compare_vegas cfg ~flows =
  let params =
    {
      Fluidmodel.Vegas_fluid.flows;
      capacity_pps = Hybrid.capacity_pps cfg;
      base_rtt_s = Config.rtt_prop_s cfg;
      buffer_packets = float_of_int cfg.Config.buffer_packets;
      alpha = cfg.Config.vegas.Transport.Cc.alpha;
      beta = cfg.Config.vegas.Transport.Cc.beta;
    }
  in
  let eq = Fluidmodel.Vegas_fluid.equilibrium params in
  let w, q, thr = measure cfg Scenario.vegas ~flows in
  {
    flows;
    protocol = "Vegas";
    fluid_window = eq.Fluidmodel.Vegas_fluid.eq_window;
    measured_window = w;
    fluid_queue = eq.Fluidmodel.Vegas_fluid.eq_queue;
    measured_queue = q;
    fluid_throughput_pps = eq.Fluidmodel.Vegas_fluid.eq_throughput_pps;
    measured_throughput_pps = thr;
  }

let report ppf cfg flow_counts =
  Format.fprintf ppf
    "Fluid approximation vs packet simulation (greedy flows, steady state)@.@.";
  let rows =
    List.concat_map
      (fun flows ->
        List.map
          (fun c ->
            [
              string_of_int c.flows;
              c.protocol;
              Render.fmt_float c.fluid_window;
              Render.fmt_float c.measured_window;
              Render.fmt_float c.fluid_queue;
              Render.fmt_float c.measured_queue;
              Render.fmt_float c.fluid_throughput_pps;
              Render.fmt_float c.measured_throughput_pps;
            ])
          [ compare_reno cfg ~flows; compare_vegas cfg ~flows ])
      flow_counts
  in
  Render.table ppf
    ~header:
      [
        "flows"; "protocol"; "w* fluid"; "w* sim"; "q* fluid"; "q* sim";
        "thr fluid"; "thr sim";
      ]
    ~rows
