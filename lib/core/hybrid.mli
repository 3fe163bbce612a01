(** Hybrid fluid/packet engine: O(1)-in-N background traffic.

    [cfg.clients] foreground flows run packet-level while
    [cfg.background] greedy Reno flows drive the shared bottleneck
    through their mean-field fluid limit, coupled bidirectionally each
    quantum: the packet side is measured (physical queue, foreground
    rates, the gateway's drop probability — fed to the window law one
    round-trip late, the Misra-Gong-Towsley delay term), one RK4 step
    advances the fluid state [\[w; q_v\]] with those inputs frozen, and the fluid
    side is injected back as a virtual RED average-queue contribution
    plus a serialization-time stretch equal to capacity over the
    foreground's bandwidth share. A million background users cost one
    fixed-size ODE step per quantum instead of a million packet
    streams.

    All coupling inputs live on the attaching scheduler's domain, so
    under the sharded PDES engine the quantum runs on the rank-0 hub
    and results stay bit-identical for every shard count. *)

(** The coupled background ODE and injection laws, exposed so tests can
    drive them directly (dt-convergence, clamp behaviour). *)
module Coupling : sig
  type params = {
    n_bg : float;  (** background flow count *)
    capacity_pps : float;  (** bottleneck line rate, packets/s *)
    base_rtt_s : float;  (** round-trip propagation delay, seconds *)
    buffer_packets : float;  (** shared gateway buffer bound *)
    max_window : float;  (** advertised-window clamp, packets *)
  }

  type inputs = {
    mutable q_pkt : float;  (** physical bottleneck backlog, packets *)
    mutable mu_fg_pps : float;  (** measured foreground departure rate *)
    mutable p_drop : float;  (** gateway drop/mark probability *)
  }
  (** Packet-side measurements, frozen for one quantum — the coupling's
      O(quantum) error source. *)

  val rtt : params -> inputs -> float -> float
  (** [rtt p i q_v]: base RTT plus combined (physical + virtual)
      queueing delay. *)

  val bg_rate : params -> inputs -> w:float -> q_v:float -> float
  (** Aggregate background arrival rate [n_bg * w / rtt], packets/s. *)

  val field : params -> inputs -> Fluidmodel.Ode.system_in_place
  (** The coupled vector field over [\[| w; q_v |\]]: Reno's fluid
      window law against [p_drop], and a virtual backlog absorbing
      background arrivals beyond the capacity the measured foreground
      leaves over. Clamped at the empty/full backlog boundaries. *)

  val project : params -> inputs -> float array -> unit
  (** Post-step clamp: [w] into [\[1e-3, max_window\]], [q_v] into
      [\[0, buffer - q_pkt\]]. *)

  val step : Fluidmodel.Ode.stepper -> params -> inputs -> dt:float -> float array -> unit
  (** One projected RK4 step of {!field}, in place and allocation-free. *)

  val foreground_share : params -> lam_bg:float -> lam_fg:float -> float
  (** Bandwidth left to the foreground: [capacity - lam_bg] below
      saturation, the proportional FIFO share past it (continuous at
      the boundary). *)

  val slowdown : params -> lam_bg:float -> lam_fg:float -> float
  (** Serialization-time multiplier [capacity / foreground_share],
      clamped into [\[1, 1e4\]]. *)
end

type t

val default_quantum_s : Config.t -> float
(** The coupling quantum: a twentieth of the round-trip
    propagation delay, floored at 1 ms — fine enough that the
    window/queue dynamics (which evolve on RTT timescales) see a
    smooth coupling, coarse enough to stay O(1) per simulated RTT. *)

val capacity_pps : Config.t -> float
(** Bottleneck line rate in packets/s (the fluid model's unit). *)

val attach :
  sched:Sim_engine.Scheduler.t ->
  bottleneck:Netsim.Link.t ->
  Config.t ->
  t
(** Start the coupling: schedules a quantum tick on [sched] every
    {!default_quantum_s} (first fire one quantum in, self-rescheduling
    until [cfg.duration_s]) that measures the bottleneck, steps the
    fluid state, and injects the virtual queue / EWMA catch-up /
    serialization stretch back into [bottleneck]. Background state
    starts at [w = 1, q_v = 0] and converges over the warmup.
    @raise Invalid_argument if [cfg.background < 1]. *)

val bg_queue : t -> float
(** Current virtual background backlog (packets) — add this to a
    physical queue signal to get the combined backlog under
    disciplines whose average does not already fold it in. *)

val steps : t -> int
(** Quanta taken so far. *)

val summary : t -> Metrics.hybrid_summary
(** Means over the post-warmup measurement window (zeros when the run
    never left the warmup). *)

val export : Telemetry.Registry.t -> run:string -> Metrics.hybrid_summary -> unit
(** Set per-run labelled [hybrid_*] gauges, mirroring
    {!Telemetry.Burst.export}. *)

val record_summary :
  Telemetry.Recorder.lane -> tick:int -> sid:int -> Metrics.hybrid_summary -> unit
(** Append the end-of-run [hybrid_bg_window]/[hybrid_bg_queue]/
    [hybrid_bg_rate] records to a flight-recorder lane. *)
