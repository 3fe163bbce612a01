let metrics_cells m =
  [
    Render.fmt_float m.Metrics.cov;
    Printf.sprintf "%+.1f%%" (Metrics.cov_inflation_pct m);
    string_of_int m.Metrics.delivered;
    Printf.sprintf "%.2f%%" m.Metrics.loss_pct;
    string_of_int m.Metrics.timeouts;
    string_of_int m.Metrics.drop_run_max;
    Render.fmt_float m.Metrics.jain_fairness;
  ]

let metrics_header =
  [ "cov"; "vs poisson"; "delivered"; "loss"; "timeouts"; "max burst"; "jain" ]

let run_row cfg scenario = Run.run cfg scenario

let buffer_sweep ppf cfg ~clients =
  Format.fprintf ppf
    "Ablation: gateway buffer size, %d clients (Reno varies, Vegas does not)@.@."
    clients;
  let rows =
    List.concat_map
      (fun buffer ->
        List.map
          (fun scenario ->
            let cfg =
              { (Config.with_clients cfg clients) with Config.buffer_packets = buffer }
            in
            let m = run_row cfg scenario in
            (string_of_int buffer ^ " pkts") :: Scenario.label scenario
            :: metrics_cells m)
          [ Scenario.reno; Scenario.vegas ])
      [ 25; 50; 100; 200 ]
  in
  Render.table ppf ~header:(("buffer" :: "protocol" :: metrics_header)) ~rows

let red_threshold_sweep ppf cfg ~clients =
  Format.fprintf ppf "Ablation: RED thresholds, %d clients@.@." clients;
  let rows =
    List.concat_map
      (fun (min_th, max_th) ->
        List.map
          (fun scenario ->
            let cfg =
              {
                (Config.with_clients cfg clients) with
                Config.red_min_th = min_th;
                red_max_th = max_th;
              }
            in
            let m = run_row cfg scenario in
            Printf.sprintf "(%g, %g)" min_th max_th
            :: Scenario.label scenario :: metrics_cells m)
          [ Scenario.reno_red; Scenario.vegas_red ])
      [ (5., 15.); (10., 40.); (25., 45.) ]
  in
  Render.table ppf ~header:(("(min,max)" :: "protocol" :: metrics_header)) ~rows

let vegas_alpha_beta_sweep ppf cfg ~clients =
  Format.fprintf ppf "Ablation: Vegas alpha/beta, %d clients@.@." clients;
  let rows =
    List.map
      (fun (alpha, beta) ->
        let cfg =
          {
            (Config.with_clients cfg clients) with
            Config.vegas = { Transport.Cc.alpha; beta; gamma = 1. };
          }
        in
        let m = run_row cfg Scenario.vegas in
        Printf.sprintf "(%g, %g)" alpha beta :: metrics_cells m)
      [ (1., 3.); (2., 4.); (4., 8.) ]
  in
  Render.table ppf ~header:(("(alpha,beta)" :: metrics_header)) ~rows

let cc_comparison ppf cfg ns =
  Format.fprintf ppf "Ablation: congestion-control variants across load@.@.";
  let scenarios =
    [ Scenario.tahoe; Scenario.reno; Scenario.newreno; Scenario.sack; Scenario.vegas ]
  in
  let rows =
    List.concat_map
      (fun n ->
        List.map
          (fun scenario ->
            let cfg = Config.with_clients cfg n in
            let cfg = { cfg with Config.seed = Sweep.seed_for cfg scenario n } in
            let m = run_row cfg scenario in
            string_of_int n :: Scenario.label scenario :: metrics_cells m)
          scenarios)
      ns
  in
  Render.table ppf ~header:(("clients" :: "protocol" :: metrics_header)) ~rows

let ecn_comparison ppf cfg ns =
  Format.fprintf ppf "Ablation: ECN marking and Self-Configuring RED@.@.";
  let scenarios =
    [
      Scenario.reno; Scenario.reno_red; Scenario.reno_ecn; Scenario.reno_ared;
      Scenario.vegas; Scenario.vegas_red; Scenario.vegas_ecn; Scenario.vegas_ared;
    ]
  in
  let rows =
    List.concat_map
      (fun n ->
        List.map
          (fun scenario ->
            let cfg = Config.with_clients cfg n in
            let cfg = { cfg with Config.seed = Sweep.seed_for cfg scenario n } in
            let m = run_row cfg scenario in
            (string_of_int n :: Scenario.label scenario :: metrics_cells m)
            @ [ string_of_int m.Metrics.ecn_marks; string_of_int m.Metrics.ecn_reactions ])
          scenarios)
      ns
  in
  Render.table ppf
    ~header:(("clients" :: "scenario" :: metrics_header) @ [ "marks"; "ece rxn" ])
    ~rows

let latency ppf cfg ns =
  Format.fprintf ppf "Ablation: one-way packet delay at the server@.@.";
  let scenarios =
    [ Scenario.udp; Scenario.reno; Scenario.reno_red; Scenario.vegas;
      Scenario.vegas_red ]
  in
  let rows =
    List.concat_map
      (fun n ->
        List.map
          (fun scenario ->
            let cfg = Config.with_clients cfg n in
            let cfg = { cfg with Config.seed = Sweep.seed_for cfg scenario n } in
            let m = run_row cfg scenario in
            [
              string_of_int n;
              Scenario.label scenario;
              Printf.sprintf "%.1f" (m.Metrics.delay_mean_s *. 1e3);
              Printf.sprintf "%.1f" (m.Metrics.delay_p99_s *. 1e3);
              Printf.sprintf "%.2f%%" m.Metrics.loss_pct;
            ])
          scenarios)
      ns
  in
  Render.table ppf
    ~header:[ "clients"; "scenario"; "mean delay ms"; "p99 delay ms"; "loss" ]
    ~rows

let cwnd_validation ppf cfg ns =
  Format.fprintf ppf
    "Ablation: RFC 2861 congestion-window validation (what-if)@.@.";
  let rows =
    List.concat_map
      (fun n ->
        List.concat_map
          (fun scenario ->
            List.map
              (fun validation ->
                let cfg = Config.with_clients cfg n in
                let cfg =
                  {
                    cfg with
                    Config.cwnd_validation = validation;
                    seed = Sweep.seed_for cfg scenario n;
                  }
                in
                let m = run_row cfg scenario in
                string_of_int n :: Scenario.label scenario
                :: (if validation then "on" else "off")
                :: metrics_cells m)
              [ false; true ])
          [ Scenario.reno; Scenario.vegas ])
      ns
  in
  Render.table ppf ~header:(("clients" :: "protocol" :: "rfc2861" :: metrics_header)) ~rows

(* c.o.v. of gateway arrivals at an arbitrary bin width (the paper's
   metric fixes the bin to one RTT; pacing's effect is scale-dependent):
   an ordinary classic-engine run with one extra binner on the
   bottleneck. *)
let cov_at_bin cfg scenario width =
  let binner = ref None in
  let prepare net =
    binner :=
      Some
        (Netsim.Monitor.arrival_binner (Dumbbell.pool net)
           (Dumbbell.bottleneck net) ~origin:cfg.Config.warmup_s ~width)
  in
  ignore (Run.run ~prepare cfg scenario);
  let counts =
    Netstats.Binned.counts (Option.get !binner) ~upto:cfg.Config.duration_s
  in
  (Netstats.Summary.of_array counts).Netstats.Summary.cov

let pacing ppf cfg ns =
  Format.fprintf ppf "Ablation: TCP pacing (what-if)@.@.";
  let rows =
    List.concat_map
      (fun n ->
        List.concat_map
          (fun scenario ->
            List.map
              (fun paced ->
                let cfg = Config.with_clients cfg n in
                let cfg =
                  {
                    cfg with
                    Config.pacing = paced;
                    seed = Sweep.seed_for cfg scenario n;
                  }
                in
                let m = run_row cfg scenario in
                string_of_int n :: Scenario.label scenario
                :: (if paced then "on" else "off")
                :: metrics_cells m)
              [ false; true ])
          [ Scenario.reno; Scenario.vegas ])
      ns
  in
  Render.table ppf ~header:(("clients" :: "protocol" :: "pacing" :: metrics_header)) ~rows;
  (* Pacing's effect is timescale-dependent: show the c.o.v. across bin
     widths for Reno at the first swept load. *)
  match ns with
  | [] -> ()
  | n :: _ ->
      Format.fprintf ppf
        "@.Timescale dependence (Reno, %d clients): c.o.v. by bin width@.@." n;
      let cfg = Config.with_clients cfg n in
      let widths = [ 0.05; 0.1; 0.25; Config.rtt_prop_s cfg ] in
      let trows =
        List.map
          (fun w ->
            let plain = cov_at_bin cfg Scenario.reno w in
            let paced = cov_at_bin { cfg with Config.pacing = true } Scenario.reno w in
            [
              Printf.sprintf "%.2f s" w;
              Render.fmt_float plain;
              Render.fmt_float paced;
              Printf.sprintf "%+.0f%%" (100. *. (paced -. plain) /. plain);
            ])
          widths
      in
      Render.table ppf ~header:[ "bin"; "ack-clocked"; "paced"; "change" ] ~rows:trows;
      Format.fprintf ppf
        "@.Pacing smooths the sub-RTT structure but worsens the per-RTT metric:@.";
      Format.fprintf ppf
        "spreading the window delays congestion signals and synchronizes the@.";
      Format.fprintf ppf
        "resulting losses (the Aggarwal-Savage-Anderson result), so it does not@.";
      Format.fprintf ppf "repair the burstiness this paper measures.@."
