type t = {
  clients : int;
  client_bandwidth_mbps : float;
  client_delay_s : float;
  bottleneck_bandwidth_mbps : float;
  bottleneck_delay_s : float;
  adv_window : int;
  buffer_packets : int;
  packet_bytes : int;
  ack_bytes : int;
  mean_interarrival_s : float;
  duration_s : float;
  warmup_s : float;
  red_min_th : float;
  red_max_th : float;
  red_max_p : float;
  red_w_q : float;
  vegas : Transport.Cc.vegas_params;
  rto : Transport.Rto.params;
  cwnd_validation : bool;
  pacing : bool;
  start_stagger_s : float;
  client_delay_spread_s : float;
  shards : int;
  background : int;
  seed : int64;
}

let default =
  {
    clients = 1;
    client_bandwidth_mbps = 10.;
    client_delay_s = 0.250;
    bottleneck_bandwidth_mbps = 5.;
    bottleneck_delay_s = 0.250;
    adv_window = 20;
    buffer_packets = 50;
    packet_bytes = 1500;
    ack_bytes = 40;
    mean_interarrival_s = 0.1;
    duration_s = 200.;
    warmup_s = 30.;
    red_min_th = 10.;
    red_max_th = 40.;
    red_max_p = 0.02;
    red_w_q = 0.002;
    vegas = Transport.Cc.default_vegas;
    rto = Transport.Rto.default_params;
    cwnd_validation = false;
    pacing = false;
    start_stagger_s = 0.;
    client_delay_spread_s = 0.;
    shards = 0;
    background = 0;
    seed = 0xB0257151L;
  }

let with_clients t clients =
  if clients < 1 then invalid_arg "Config.with_clients: clients < 1";
  { t with clients }

let horizon_s = Sim_engine.Time.(to_sec never)

let validate t =
  let check name ok = if not ok then invalid_arg ("Config.validate: " ^ name) in
  (* Also false for infinity and NaN. *)
  let below_horizon x = x < horizon_s in
  check "clients" (t.clients >= 1);
  check "client_bandwidth_mbps" (t.client_bandwidth_mbps > 0.);
  check "bottleneck_bandwidth_mbps" (t.bottleneck_bandwidth_mbps > 0.);
  check "client_delay_s"
    (t.client_delay_s > 0. && below_horizon t.client_delay_s);
  check "bottleneck_delay_s"
    (t.bottleneck_delay_s > 0. && below_horizon t.bottleneck_delay_s);
  check "adv_window" (t.adv_window >= 1);
  check "buffer_packets" (t.buffer_packets >= 1);
  check "packet_bytes" (t.packet_bytes > t.ack_bytes && t.ack_bytes > 0);
  check "mean_interarrival_s"
    (t.mean_interarrival_s > 0. && below_horizon t.mean_interarrival_s);
  check "duration_s" (t.duration_s > 0. && below_horizon t.duration_s);
  check "warmup_s" (t.warmup_s >= 0. && t.warmup_s < t.duration_s);
  check "red thresholds" (t.red_min_th > 0. && t.red_max_th > t.red_min_th);
  check "red_max_p" (t.red_max_p > 0. && t.red_max_p <= 1.);
  check "red_w_q" (t.red_w_q > 0. && t.red_w_q <= 1.);
  Option.iter
    (fun f -> check ("rto." ^ f) false)
    (Transport.Rto.bad_field t.rto);
  check "start_stagger_s"
    (t.start_stagger_s >= 0. && below_horizon t.start_stagger_s);
  check "client_delay_spread_s"
    (t.client_delay_spread_s >= 0. && below_horizon t.client_delay_spread_s);
  check "shards" (t.shards >= 0);
  check "background" (t.background >= 0)

let rtt_prop_s t = 2. *. (t.client_delay_s +. t.bottleneck_delay_s)

let per_client_bps t = float_of_int (8 * t.packet_bytes) /. t.mean_interarrival_s

let offered_load_fraction t =
  float_of_int t.clients *. per_client_bps t /. (t.bottleneck_bandwidth_mbps *. 1e6)

let saturation_clients t = t.bottleneck_bandwidth_mbps *. 1e6 /. per_client_bps t

let pp ppf t =
  let row fmt = Format.fprintf ppf fmt in
  row "@[<v>";
  row "client link bandwidth (mu_c)        %.4g Mbps@," t.client_bandwidth_mbps;
  row "client link delay (tau_c)           %.4g ms@," (t.client_delay_s *. 1e3);
  row "bottleneck link bandwidth (mu_s)    %.4g Mbps@," t.bottleneck_bandwidth_mbps;
  row "bottleneck link delay (tau_s)       %.4g ms@," (t.bottleneck_delay_s *. 1e3);
  row "TCP max advertised window           %d packets@," t.adv_window;
  row "gateway buffer size (B)             %d packets@," t.buffer_packets;
  row "packet size                         %d bytes@," t.packet_bytes;
  row "avg packet intergeneration time     %.4g s@," t.mean_interarrival_s;
  row "total test time                     %.4g s@," t.duration_s;
  row "TCP Vegas alpha / beta / gamma      %g / %g / %g@," t.vegas.Transport.Cc.alpha
    t.vegas.Transport.Cc.beta t.vegas.Transport.Cc.gamma;
  row "RED min_th / max_th                 %g / %g packets@," t.red_min_th t.red_max_th;
  row "RED max_p / w_q                     %g / %g@," t.red_max_p t.red_w_q;
  row "@]"
