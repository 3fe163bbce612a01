module Time = Sim_engine.Time
module Scheduler = Sim_engine.Scheduler

(* Hybrid fluid/packet engine.

   K = cfg.clients foreground flows run packet-level as usual; the
   M = cfg.background flows are a homogeneous Reno population reduced to
   its mean-field fluid limit (McDonald & Reynier), co-simulated with
   the packet engine on the shared bottleneck (Frommer et al.). Each
   coupling quantum:

   - the packet side is *measured*: physical queue occupancy [q_pkt],
     foreground arrival/departure rates over the last quantum, and the
     drop/mark probability the gateway is applying (RED's own averaged
     queue drives the fluid loss term, so both populations see the same
     congestion signal);
   - the fluid state [w; q_v] (per-flow background window, virtual
     background backlog) advances by one RK4 step with those inputs
     frozen — the documented O(quantum) coupling error; the window law
     sees the loss signal one round-trip late (the Misra-Gong-Towsley
     delay term), which is what lets the fluid population reproduce
     RED's super-critical limit cycle;
   - the fluid side is *injected* back: the virtual backlog joins RED's
     average-queue samples ({!Netsim.Red.set_virtual_queue}) with a
     closed-form EWMA catch-up for the background arrivals that were
     never physical ({!Netsim.Red.virtual_update}), and the bottleneck's
     serialization times stretch by capacity / foreground-share
     ({!Netsim.Link.set_bg_slowdown}) so foreground packets experience
     the residual bandwidth.

   Everything the quantum tick reads lives on the scheduler's own
   domain, so under the sharded PDES engine the tick runs on the rank-0
   hub and the results stay bit-identical for every shard count. *)

(* ------------------------------------------------------------------ *)
(* The coupled background ODE, exposed for tests.                      *)

module Coupling = struct
  type params = {
    n_bg : float;  (* background flow count *)
    capacity_pps : float;  (* bottleneck line rate, packets/s *)
    base_rtt_s : float;  (* round-trip propagation delay *)
    buffer_packets : float;  (* shared gateway buffer bound *)
    max_window : float;  (* advertised-window clamp, packets *)
  }

  (* Packet-side measurements, frozen for the duration of one quantum. *)
  type inputs = {
    mutable q_pkt : float;  (* physical bottleneck backlog, packets *)
    mutable mu_fg_pps : float;  (* foreground departure rate *)
    mutable p_drop : float;  (* gateway drop/mark probability *)
  }

  let rtt p (i : inputs) q_v =
    p.base_rtt_s +. ((i.q_pkt +. Stdlib.max 0. q_v) /. p.capacity_pps)

  let bg_rate p i ~w ~q_v = p.n_bg *. Stdlib.max w 1e-3 /. rtt p i q_v

  (* State layout: [| w; q_v |]. The window follows the Reno fluid
     law (additive 1/RTT increase, multiplicative w/2 decrease at the
     per-packet loss rate); the virtual backlog absorbs whatever the
     background offers beyond the capacity left over by the measured
     foreground departures. Both clamps mirror [Reno_fluid.field]. *)
  let field p (i : inputs) : Fluidmodel.Ode.system_in_place =
   fun ~t:_ ~y ~dy ->
    let w = Stdlib.max y.(0) 1e-3 in
    let q_v = Stdlib.max y.(1) 0. in
    let r = rtt p i q_v in
    let per_flow_rate = w /. r in
    let arrival = p.n_bg *. per_flow_rate in
    let dw = (1. /. r) -. (w /. 2. *. per_flow_rate *. i.p_drop) in
    let dw = if w >= p.max_window && dw > 0. then 0. else dw in
    let dq =
      let raw = arrival -. Stdlib.max 0. (p.capacity_pps -. i.mu_fg_pps) in
      let full = i.q_pkt +. q_v >= p.buffer_packets in
      if (q_v <= 0. && raw < 0.) || (full && raw > 0.) then 0. else raw
    in
    dy.(0) <- dw;
    dy.(1) <- dq

  let project p (i : inputs) y =
    if y.(0) < 1e-3 then y.(0) <- 1e-3;
    if y.(0) > p.max_window then y.(0) <- p.max_window;
    if y.(1) < 0. then y.(1) <- 0.;
    let room = Stdlib.max 0. (p.buffer_packets -. i.q_pkt) in
    if y.(1) > room then y.(1) <- room

  let step stepper p i ~dt y =
    Fluidmodel.Ode.step_in_place stepper (field p i) ~t:0. ~dt y;
    project p i y

  (* Foreground bandwidth share: below saturation the foreground gets
     whatever the background leaves; past it, its proportional FIFO
     share. [max] makes the two branches continuous at the boundary. *)
  let foreground_share p ~lam_bg ~lam_fg =
    let leftover = p.capacity_pps -. lam_bg in
    let total = lam_bg +. lam_fg in
    let proportional =
      if total > 0. then p.capacity_pps *. lam_fg /. total else leftover
    in
    Stdlib.max leftover proportional

  let max_slowdown = 1e4

  let slowdown p ~lam_bg ~lam_fg =
    let share = foreground_share p ~lam_bg ~lam_fg in
    if share <= p.capacity_pps /. max_slowdown then max_slowdown
    else Stdlib.max 1. (p.capacity_pps /. share)
end

(* ------------------------------------------------------------------ *)
(* The engine attachment.                                              *)

type t = {
  sched : Scheduler.t;
  bottleneck : Netsim.Link.t;
  qdisc : Netsim.Queue_disc.t;
  p : Coupling.params;
  inputs : Coupling.inputs;
  stepper : Fluidmodel.Ode.stepper;
  y : float array;  (* [| w; q_v |] *)
  quantum : Time.span;
  quantum_sf : float;
  horizon : Time.t;
  measure_from : float;
  (* RED linear drop law, for turning the gateway's averaged queue into
     the fluid loss term (mirrors [Reno_fluid.drop_probability]). *)
  red_min_th : float;
  red_max_th : float;
  red_max_p : float;
  (* One-RTT feedback delay on the loss signal (the Misra-Gong-Towsley
     delay term): the fluid window law reacts to the drop probability
     the gateway applied one round-trip ago, not the current one —
     without it the fluid population cannot Hopf-oscillate and the
     super-critical RED regime would look spuriously quiet. Ring of
     per-quantum samples, newest at [p_pos]. *)
  p_hist : float array;
  mutable p_pos : int;
  mutable last_arrivals : int;
  mutable last_departures : int;
  mutable last_drops : int;
  mutable steps : int;
  (* Measurement-window accumulators (post-warmup sums). *)
  mutable m_steps : int;
  mutable sum_w : float;
  mutable sum_qv : float;
  mutable sum_rate : float;
  mutable sum_p : float;
  mutable sum_slow : float;
  mutable sum_comb : float;
  mutable tick : unit -> unit;
}

let default_quantum_s cfg = Stdlib.max 1e-3 (Config.rtt_prop_s cfg /. 20.)

let capacity_pps cfg =
  cfg.Config.bottleneck_bandwidth_mbps *. 1e6
  /. float_of_int (8 * cfg.Config.packet_bytes)

let drop_probability t avg =
  let pb =
    if avg <= t.red_min_th then 0.
    else if avg >= t.red_max_th then 1.
    else
      t.red_max_p *. (avg -. t.red_min_th) /. (t.red_max_th -. t.red_min_th)
  in
  (* Floyd's count mechanism uniformizes inter-drop gaps over
     [1, 1/p_b], so the gateway's effective drop rate is 2p/(1+p), not
     the raw linear law — the packet-level foreground experiences the
     inflated rate, and the fluid population must see the same signal
     or it over-windows by sqrt(2) at equilibrium. *)
  2. *. pb /. (1. +. pb)

let measure t =
  let arr = Netsim.Link.arrivals t.bottleneck in
  let dep = Netsim.Link.departures t.bottleneck in
  let drops = Netsim.Link.drops t.bottleneck in
  let d_arr = arr - t.last_arrivals in
  let d_dep = dep - t.last_departures in
  let d_drop = drops - t.last_drops in
  t.last_arrivals <- arr;
  t.last_departures <- dep;
  t.last_drops <- drops;
  t.inputs.Coupling.q_pkt <-
    float_of_int (Netsim.Link.queue_length t.bottleneck);
  t.inputs.Coupling.mu_fg_pps <- float_of_int d_dep /. t.quantum_sf;
  let p_now =
    match t.qdisc with
    | Netsim.Queue_disc.Red q -> drop_probability t (Netsim.Red.avg q)
    | Netsim.Queue_disc.Droptail _ | Netsim.Queue_disc.Sfq _ ->
        (* No averaged signal to share: the fluid population sees the
           measured foreground drop fraction of the last quantum. *)
        if d_arr = 0 then 0. else float_of_int d_drop /. float_of_int d_arr
  in
  let n = Array.length t.p_hist in
  t.p_pos <- (t.p_pos + 1) mod n;
  t.p_hist.(t.p_pos) <- p_now;
  let r = Coupling.rtt t.p t.inputs t.y.(1) in
  let back =
    Stdlib.min (n - 1) (int_of_float ((r /. t.quantum_sf) +. 0.5))
  in
  t.inputs.Coupling.p_drop <- t.p_hist.((t.p_pos - back + n) mod n);
  float_of_int d_arr /. t.quantum_sf

let quantum_tick t () =
  let lam_fg = measure t in
  Coupling.step t.stepper t.p t.inputs ~dt:t.quantum_sf t.y;
  let w = t.y.(0) and q_v = t.y.(1) in
  let lam_bg = Coupling.bg_rate t.p t.inputs ~w ~q_v in
  Netsim.Queue_disc.set_virtual_queue t.qdisc q_v;
  Netsim.Queue_disc.virtual_update t.qdisc
    ~arrivals:(lam_bg *. t.quantum_sf);
  let slow = Coupling.slowdown t.p ~lam_bg ~lam_fg in
  Netsim.Link.set_bg_slowdown t.bottleneck slow;
  t.steps <- t.steps + 1;
  let now = Scheduler.now t.sched in
  if Time.to_sec now >= t.measure_from then begin
    t.m_steps <- t.m_steps + 1;
    t.sum_w <- t.sum_w +. w;
    t.sum_qv <- t.sum_qv +. q_v;
    t.sum_rate <- t.sum_rate +. lam_bg;
    t.sum_p <- t.sum_p +. t.inputs.Coupling.p_drop;
    t.sum_slow <- t.sum_slow +. slow;
    t.sum_comb <- t.sum_comb +. t.inputs.Coupling.q_pkt +. q_v
  end;
  if Time.(add now t.quantum <= t.horizon) then
    ignore (Scheduler.after t.sched t.quantum t.tick)

let attach ~sched ~bottleneck cfg =
  if cfg.Config.background < 1 then
    invalid_arg "Hybrid.attach: cfg.background < 1";
  let quantum_sf = default_quantum_s cfg in
  let p =
    {
      Coupling.n_bg = float_of_int cfg.Config.background;
      capacity_pps = capacity_pps cfg;
      base_rtt_s = Config.rtt_prop_s cfg;
      buffer_packets = float_of_int cfg.Config.buffer_packets;
      max_window = float_of_int cfg.Config.adv_window;
    }
  in
  (* History deep enough for the worst-case RTT (propagation plus a
     full buffer's queueing delay), capped so a pathological buffer
     cannot demand an unbounded ring — past the cap the delay merely
     saturates. *)
  let hist_len =
    let r_max =
      p.Coupling.base_rtt_s
      +. (p.Coupling.buffer_packets /. p.Coupling.capacity_pps)
    in
    Stdlib.min 4096
      (Stdlib.max 2 (1 + int_of_float (Float.ceil (r_max /. quantum_sf))))
  in
  let t =
    {
      sched;
      bottleneck;
      qdisc = Netsim.Link.queue_disc bottleneck;
      p;
      inputs = { Coupling.q_pkt = 0.; mu_fg_pps = 0.; p_drop = 0. };
      p_hist = Array.make hist_len 0.;
      p_pos = 0;
      stepper = Fluidmodel.Ode.stepper 2;
      y = [| 1.; 0. |];
      quantum = Time.of_sec quantum_sf;
      quantum_sf;
      horizon = Time.of_sec cfg.Config.duration_s;
      measure_from = cfg.Config.warmup_s;
      red_min_th = cfg.Config.red_min_th;
      red_max_th = cfg.Config.red_max_th;
      red_max_p = cfg.Config.red_max_p;
      last_arrivals = 0;
      last_departures = 0;
      last_drops = 0;
      steps = 0;
      m_steps = 0;
      sum_w = 0.;
      sum_qv = 0.;
      sum_rate = 0.;
      sum_p = 0.;
      sum_slow = 0.;
      sum_comb = 0.;
      tick = ignore;
    }
  in
  t.tick <- (fun () -> quantum_tick t ());
  ignore (Scheduler.after sched t.quantum t.tick);
  t

let bg_queue t = t.y.(1)

let steps t = t.steps

let summary t : Metrics.hybrid_summary =
  let n = float_of_int (Stdlib.max 1 t.m_steps) in
  let mean sum = if t.m_steps = 0 then 0. else sum /. n in
  {
    Metrics.background = int_of_float t.p.Coupling.n_bg;
    quantum_s = t.quantum_sf;
    steps = t.steps;
    bg_window_mean = mean t.sum_w;
    bg_queue_mean = mean t.sum_qv;
    bg_rate_mean = mean t.sum_rate;
    bg_drop_mean = mean t.sum_p;
    slowdown_mean = mean t.sum_slow;
    combined_queue_mean = mean t.sum_comb;
  }

(* ------------------------------------------------------------------ *)
(* Exposition, mirroring [Telemetry.Burst.export]/[record_summary].    *)

let export registry ~run (s : Metrics.hybrid_summary) =
  let set name help v =
    Telemetry.Registry.set
      (Telemetry.Registry.gauge registry ~labels:[ ("run", run) ] ~help name)
      v
  in
  set "hybrid_background" "Fluid background flows in the hybrid engine"
    (float_of_int s.Metrics.background);
  set "hybrid_quantum_seconds" "Hybrid coupling quantum" s.Metrics.quantum_s;
  set "hybrid_bg_window" "Mean per-flow background window (packets)"
    s.Metrics.bg_window_mean;
  set "hybrid_bg_queue" "Mean virtual background backlog (packets)"
    s.Metrics.bg_queue_mean;
  set "hybrid_bg_rate" "Mean background arrival rate (packets/s)"
    s.Metrics.bg_rate_mean;
  set "hybrid_bg_drop_probability" "Mean drop/mark probability the ODE saw"
    s.Metrics.bg_drop_mean;
  set "hybrid_slowdown" "Mean bottleneck serialization-time multiplier"
    s.Metrics.slowdown_mean;
  set "hybrid_combined_queue"
    "Mean physical + virtual bottleneck backlog (packets)"
    s.Metrics.combined_queue_mean

let record_summary lane ~tick ~sid (s : Metrics.hybrid_summary) =
  let record kind v =
    Telemetry.Recorder.record lane ~tick ~kind ~flow:(-1)
      ~a:s.Metrics.background
      ~b:(Telemetry.Record.float_hi v)
      ~c:(Telemetry.Record.float_lo v)
      ~sid ~depth:s.Metrics.steps
  in
  record Telemetry.Record.hybrid_bg_window s.Metrics.bg_window_mean;
  record Telemetry.Record.hybrid_bg_queue s.Metrics.bg_queue_mean;
  record Telemetry.Record.hybrid_bg_rate s.Metrics.bg_rate_mean
