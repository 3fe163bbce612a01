(** Experiment configuration — Table 1 of the paper.

    Defaults reconstruct the paper's parameters (see DESIGN.md for the
    OCR-reconstruction rationale): 10 Mbps / 250 ms client links, a
    5 Mbps / 250 ms bottleneck (a 1 s propagation RTT), a 20-packet
    advertised window, a 50-packet gateway buffer, 1500-byte packets,
    Poisson sources with 0.1 s mean spacing, and a 200 s test. *)

type t = {
  clients : int;  (** number of client nodes, the swept variable *)
  client_bandwidth_mbps : float;  (** mu_c *)
  client_delay_s : float;  (** tau_c *)
  bottleneck_bandwidth_mbps : float;  (** mu_s *)
  bottleneck_delay_s : float;  (** tau_s *)
  adv_window : int;  (** TCP max advertised window, packets *)
  buffer_packets : int;  (** gateway buffer B, packets *)
  packet_bytes : int;  (** data-packet size *)
  ack_bytes : int;  (** ACK size *)
  mean_interarrival_s : float;  (** 1/lambda per client *)
  duration_s : float;  (** total test time *)
  warmup_s : float;  (** excluded from burstiness measurement *)
  red_min_th : float;
  red_max_th : float;
  red_max_p : float;
  red_w_q : float;
  vegas : Transport.Cc.vegas_params;
  rto : Transport.Rto.params;
  cwnd_validation : bool;
      (** RFC 2861 congestion-window validation on every sender; off (the
          default) matches 1990s stacks and the paper *)
  pacing : bool;
      (** pace new transmissions at srtt/cwnd instead of ACK-clocked
          bursts; off by default *)
  start_stagger_s : float;
      (** each client's source starts at a uniform offset in
          [\[0, start_stagger_s\]] instead of exactly at t = 0; 0 (the
          default, matching the paper) synchronizes all initial slow
          starts *)
  client_delay_spread_s : float;
      (** client link delays are drawn uniformly from tau_c +/- spread/2;
          0 (the default) gives the paper's homogeneous RTTs *)
  shards : int;
      (** 0 (the default) runs the classic single-domain engine;
          [K >= 1] runs the sharded conservative-PDES engine with the
          client population partitioned over [K] domains ({!Pdes}).
          [K = 1] exercises the windowed machinery serially and is
          bit-identical to any [K > 1] run with the same seed. Both
          engines run every scenario, UDP included *)
  background : int;
      (** 0 (the default) simulates every flow packet-level; [M >= 1]
          runs the hybrid engine ({!Hybrid}): the [clients] flows stay
          packet-level in the foreground while [M] additional greedy
          background flows drive the bottleneck through the Reno/RED
          fluid ODE, coupled each quantum through a virtual
          service-rate reduction and the RED average-queue EWMA *)
  seed : int64;
}

val default : t
(** Table 1 values with [clients = 1]. *)

val with_clients : t -> int -> t

val horizon_s : float
(** Exclusive upper bound on every seconds-valued field: the simulation
    clock's tick horizon ([2^62] ns, about 146 years). *)

val validate : t -> unit
(** Checks the cross-field invariants a runnable configuration needs
    (positive rates and delays, warmup < duration, RED thresholds inside
    the buffer, RTO parameters per {!Transport.Rto.bad_field}, ...).
    Every seconds-valued field must also be finite and below
    {!horizon_s}, since the run turns each into a clock time.
    @raise Invalid_argument with a field name, such as
    ["Config.validate: rto.granularity"]. *)

val rtt_prop_s : t -> float
(** Round-trip propagation delay [2 (tau_c + tau_s)] — the c.o.v.
    measurement bin width (§2.2). *)

val offered_load_fraction : t -> float
(** Mean offered load divided by bottleneck capacity; > 1 means the
    network cannot carry the applications' traffic. *)

val saturation_clients : t -> float
(** Number of clients at which mean offered load equals the bottleneck
    capacity (≈ 41.7 with the defaults; the paper observes the crossover
    at 38–39 because of slow-start overshoot). *)

val pp : Format.formatter -> t -> unit
(** Renders Table 1. *)
