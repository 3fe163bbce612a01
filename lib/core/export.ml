let config_to_json (c : Config.t) =
  Json.Obj
    [
      ("clients", Json.Int c.Config.clients);
      ("client_bandwidth_mbps", Json.Float c.Config.client_bandwidth_mbps);
      ("client_delay_s", Json.Float c.Config.client_delay_s);
      ("bottleneck_bandwidth_mbps", Json.Float c.Config.bottleneck_bandwidth_mbps);
      ("bottleneck_delay_s", Json.Float c.Config.bottleneck_delay_s);
      ("adv_window", Json.Int c.Config.adv_window);
      ("buffer_packets", Json.Int c.Config.buffer_packets);
      ("packet_bytes", Json.Int c.Config.packet_bytes);
      ("ack_bytes", Json.Int c.Config.ack_bytes);
      ("mean_interarrival_s", Json.Float c.Config.mean_interarrival_s);
      ("duration_s", Json.Float c.Config.duration_s);
      ("warmup_s", Json.Float c.Config.warmup_s);
      ("red_min_th", Json.Float c.Config.red_min_th);
      ("red_max_th", Json.Float c.Config.red_max_th);
      ("red_max_p", Json.Float c.Config.red_max_p);
      ("red_w_q", Json.Float c.Config.red_w_q);
      ("vegas_alpha", Json.Float c.Config.vegas.Transport.Cc.alpha);
      ("vegas_beta", Json.Float c.Config.vegas.Transport.Cc.beta);
      ("vegas_gamma", Json.Float c.Config.vegas.Transport.Cc.gamma);
      ("start_stagger_s", Json.Float c.Config.start_stagger_s);
      ("client_delay_spread_s", Json.Float c.Config.client_delay_spread_s);
      ("shards", Json.Int c.Config.shards);
      ("background", Json.Int c.Config.background);
      ("seed", Json.String (Printf.sprintf "0x%Lx" c.Config.seed));
    ]

let hybrid_summary_to_json (s : Metrics.hybrid_summary) =
  Json.Obj
    [
      ("background", Json.Int s.Metrics.background);
      ("quantum_s", Json.Float s.Metrics.quantum_s);
      ("steps", Json.Int s.Metrics.steps);
      ("bg_window_mean", Json.Float s.Metrics.bg_window_mean);
      ("bg_queue_mean", Json.Float s.Metrics.bg_queue_mean);
      ("bg_rate_mean", Json.Float s.Metrics.bg_rate_mean);
      ("bg_drop_mean", Json.Float s.Metrics.bg_drop_mean);
      ("slowdown_mean", Json.Float s.Metrics.slowdown_mean);
      ("combined_queue_mean", Json.Float s.Metrics.combined_queue_mean);
    ]

let metrics_to_json (m : Metrics.t) =
  Json.Obj
    [
      ("scenario", Json.String (Scenario.label m.Metrics.scenario));
      ("clients", Json.Int m.Metrics.clients);
      ("cov", Json.Float m.Metrics.cov);
      ("cov_ci95", Json.Float m.Metrics.cov_ci95);
      ("analytic_cov", Json.Float m.Metrics.analytic_cov);
      ("cov_inflation_pct", Json.Float (Metrics.cov_inflation_pct m));
      ("mean_per_bin", Json.Float m.Metrics.mean_per_bin);
      ("offered", Json.Int m.Metrics.offered);
      ("delivered", Json.Int m.Metrics.delivered);
      ("segments_sent", Json.Int m.Metrics.segments_sent);
      ("gateway_arrivals", Json.Int m.Metrics.gateway_arrivals);
      ("gateway_drops", Json.Int m.Metrics.gateway_drops);
      ("loss_pct", Json.Float m.Metrics.loss_pct);
      ("timeouts", Json.Int m.Metrics.timeouts);
      ("fast_retransmits", Json.Int m.Metrics.fast_retransmits);
      ("retransmits", Json.Int m.Metrics.retransmits);
      ("dup_acks", Json.Int m.Metrics.dup_acks);
      ("timeout_dupack_ratio", Json.Float m.Metrics.timeout_dupack_ratio);
      ("jain_fairness", Json.Float m.Metrics.jain_fairness);
      ( "sync_index",
        match m.Metrics.sync_index with
        | Some v -> Json.Float v
        | None -> Json.Null );
      ("ecn_marks", Json.Int m.Metrics.ecn_marks);
      ("ecn_reactions", Json.Int m.Metrics.ecn_reactions);
      ("delay_mean_s", Json.Float m.Metrics.delay_mean_s);
      ("delay_p99_s", Json.Float m.Metrics.delay_p99_s);
      ("drop_run_max", Json.Int m.Metrics.drop_run_max);
      ("drop_run_mean", Json.Float m.Metrics.drop_run_mean);
      ( "burst",
        match m.Metrics.burst with
        | Some s -> Telemetry.Burst.summary_to_json s
        | None -> Json.Null );
      ( "hybrid",
        match m.Metrics.hybrid with
        | Some s -> hybrid_summary_to_json s
        | None -> Json.Null );
    ]

let sweep_to_json cfg (sweep : Figures.sweep_result) =
  Json.Obj
    [
      ("config", config_to_json cfg);
      ( "results",
        Json.List
          (List.concat_map (fun (_, ms) -> List.map metrics_to_json ms) sweep) );
    ]

(* The --burst-out artifact: one row per run carrying only the burst
   summary. Metrics come back from sweeps in input order regardless of
   -j, so this composes with parallel execution unchanged. *)
let burst_row (m : Metrics.t) =
  match m.Metrics.burst with
  | None -> None
  | Some s ->
      Some
        (Json.Obj
           [
             ("scenario", Json.String (Scenario.label m.Metrics.scenario));
             ("clients", Json.Int m.Metrics.clients);
             ("cov", Json.Float m.Metrics.cov);
             ("burst", Telemetry.Burst.summary_to_json s);
           ])

let burst_to_json (ms : Metrics.t list) =
  Json.Obj [ ("runs", Json.List (List.filter_map burst_row ms)) ]

let csv_columns =
  [
    "scenario"; "clients"; "cov"; "analytic_cov"; "cov_inflation_pct"; "offered";
    "delivered"; "segments_sent"; "gateway_drops"; "loss_pct"; "timeouts";
    "fast_retransmits"; "retransmits"; "dup_acks"; "timeout_dupack_ratio";
    "jain_fairness"; "delay_mean_s"; "delay_p99_s";
  ]

let csv_header = String.concat "," csv_columns

let metrics_to_csv_row (m : Metrics.t) =
  String.concat ","
    [
      Scenario.label m.Metrics.scenario;
      string_of_int m.Metrics.clients;
      Printf.sprintf "%.6f" m.Metrics.cov;
      Printf.sprintf "%.6f" m.Metrics.analytic_cov;
      Printf.sprintf "%.2f" (Metrics.cov_inflation_pct m);
      string_of_int m.Metrics.offered;
      string_of_int m.Metrics.delivered;
      string_of_int m.Metrics.segments_sent;
      string_of_int m.Metrics.gateway_drops;
      Printf.sprintf "%.4f" m.Metrics.loss_pct;
      string_of_int m.Metrics.timeouts;
      string_of_int m.Metrics.fast_retransmits;
      string_of_int m.Metrics.retransmits;
      string_of_int m.Metrics.dup_acks;
      Printf.sprintf "%.6f" m.Metrics.timeout_dupack_ratio;
      Printf.sprintf "%.6f" m.Metrics.jain_fairness;
      Printf.sprintf "%.6f" m.Metrics.delay_mean_s;
      Printf.sprintf "%.6f" m.Metrics.delay_p99_s;
    ]

let sweep_to_csv (sweep : Figures.sweep_result) =
  let rows = List.concat_map (fun (_, ms) -> List.map metrics_to_csv_row ms) sweep in
  String.concat "\n" (csv_header :: rows) ^ "\n"

let write_file path contents =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc contents)
