(* End-of-run summary of the hybrid engine's fluid background population
   (means over the post-warmup measurement window). Defined here rather
   than in [Hybrid] so [t] needs no dependency on the engine module. *)
type hybrid_summary = {
  background : int;  (* fluid background flows (N - K) *)
  quantum_s : float;  (* coupling quantum *)
  steps : int;  (* ODE quanta taken over the whole run *)
  bg_window_mean : float;  (* mean per-flow background window, packets *)
  bg_queue_mean : float;  (* mean virtual background backlog, packets *)
  bg_rate_mean : float;  (* mean background arrival rate, packets/s *)
  bg_drop_mean : float;  (* mean drop/mark probability the ODE saw *)
  slowdown_mean : float;  (* mean serialization-time multiplier *)
  combined_queue_mean : float;  (* mean physical + virtual backlog, packets *)
}

type t = {
  scenario : Scenario.t;
  clients : int;
  cov : float;
  cov_ci95 : float;
  analytic_cov : float;
  mean_per_bin : float;
  offered : int;
  delivered : int;
  segments_sent : int;
  gateway_arrivals : int;
  gateway_drops : int;
  loss_pct : float;
  timeouts : int;
  fast_retransmits : int;
  retransmits : int;
  dup_acks : int;
  timeout_dupack_ratio : float;
  per_client_delivered : int array;
  jain_fairness : float;
  sync_index : float option;
  ecn_marks : int;
  ecn_reactions : int;
  delay_mean_s : float;
  delay_p99_s : float;
  drop_run_max : int;
  drop_run_mean : float;
  cwnd_traces : (int * Netstats.Series.t) list;
  queue_series : Netstats.Series.t option;
  burst : Telemetry.Burst.summary option;
  hybrid : hybrid_summary option;
}

let cov_inflation_pct t =
  if t.analytic_cov = 0. then 0.
  else 100. *. (t.cov -. t.analytic_cov) /. t.analytic_cov

(* The sign has its own column, so rows align whatever the sign. *)
let pp_row ppf t =
  let inflation = cov_inflation_pct t in
  Format.fprintf ppf
    "%-14s n=%-3d cov=%.4f (poisson %.4f, %c%5.1f%%) delivered=%-6d loss=%5.2f%% \
     timeouts=%-4d dupacks=%-5d jain=%.3f"
    (Scenario.label t.scenario)
    t.clients t.cov t.analytic_cov
    (if inflation < 0. then '-' else '+')
    (Float.abs inflation) t.delivered t.loss_pct t.timeouts t.dup_acks
    t.jain_fairness
