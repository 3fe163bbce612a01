(** Fluid approximation of N homogeneous greedy TCP Reno flows through one
    RED bottleneck (Misra, Gong & Towsley 2000; the modelling style of the
    paper's reference [1]).

    State: per-flow window [w] (packets), instantaneous queue [q]
    (packets), and the RED average [x]. With round-trip time
    [r(q) = r0 + q/c]:

    {v
    dw/dt = 1/r(q) - (w/2) (w/r(q)) p(x)
    dq/dt = n w / r(q) - c          (clamped into [0, buffer])
    dx/dt = kappa (q - x)
    v}

    where [p] is RED's drop probability at average queue [x]. Droptail is
    modelled as RED with a very tight band near the buffer limit. *)

type params = {
  flows : int;  (** n *)
  capacity_pps : float;  (** c, packets per second *)
  base_rtt_s : float;  (** r0, propagation round trip *)
  buffer_packets : float;
  red_min_th : float;
  red_max_th : float;
  red_max_p : float;
  avg_gain : float;  (** kappa, the EWMA tracking rate, 1/s *)
}

val of_table1 :
  flows:int ->
  capacity_pps:float ->
  base_rtt_s:float ->
  buffer_packets:float ->
  params
(** RED (10, 40, 0.02) and a 10/s averaging gain. *)

type equilibrium = {
  eq_window : float;
  eq_queue : float;
  eq_throughput_pps : float;
  eq_loss : float;  (** RED drop probability at the equilibrium average *)
  eq_rtt_s : float;
}

val equilibrium : params -> equilibrium
(** State after integrating from (w, q, x) = (1, 0, 0) for 200 s in
    1 ms steps — long enough for Table 1-scale parameters to reach
    steady state. *)

type red_stability = {
  loop_gain : float;  (** L; the loop is stable for every w_q iff L <= 1 *)
  omega_g : float;  (** crossover-frequency bound, rad/s *)
  k_critical : float option;  (** averaging-pole bound, 1/s *)
  wq_critical : float option;
      (** critical per-packet EWMA gain: below it RED's averaging keeps
          the linearized loop stable, above it the queue crosses the
          Hopf boundary and oscillates. [None] when [loop_gain <= 1]
          (stable for every w_q). *)
}

val red_stability : params -> red_stability
(** Reynier/Hollot linearized stability condition for RED's averaging
    gain, evaluated at [base_rtt_s]:
    [L = (max_p / (max_th - min_th)) (R C)^3 / (2 N)^2] and, when
    [L > 1], [w_q* = 1 - exp (-omega_g / (sqrt (L^2 - 1) C))] with
    [omega_g = 0.1 min (2N / (R^2 C), 1/R)]. *)
