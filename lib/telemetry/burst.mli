(** Streaming multi-timescale burstiness estimators.

    A dyadic multi-resolution aggregator: per-bin arrival counts enter
    at level 0 (bins of [width] seconds from [origin]) and fold upward
    through ~16 doubling timescales, so one pass over the arrival
    stream yields, in O(levels) state and amortized O(1) per event:

    - streaming Welford moments of the block sums at every scale
      (c.o.v. and index-of-dispersion profiles that agree with
      {!Netstats.Summary} of the block sums of a stored bin array);
    - Haar-wavelet detail energies per octave — an Abry–Veitch-style
      logscale diagram and an online Hurst slope;
    - via {!Osc}, an EWMA-detrended zero-crossing oscillation detector
      for the bottleneck queue (the RED Hopf probe).

    The paper's headline metric — c.o.v. of gateway arrivals per RTT —
    is [cov t 0] of an aggregator created with [width = rtt]; nothing
    O(horizon) is ever stored. *)

type config = { levels : int }
(** What a probe asks a run to measure: [levels] doubling timescales
    from the RTT bin up. The run also samples the gateway queue for the
    oscillation detector. *)

val default_config : config
(** 16 levels. *)

type t

val create : ?levels:int -> origin:float -> width:float -> unit -> t
(** [levels] defaults to 16. Raises [Invalid_argument], naming the
    argument, if [width] is not finite and positive, [origin] is not
    finite, or [levels] is outside [1, 40]. *)

val observe : t -> float -> unit
(** [observe t at] counts one event at time [at] (seconds). Events
    before [origin] or behind the already-closed frontier are dropped,
    mirroring {!Netstats.Binned} semantics. *)

val observe_tick : t -> int -> unit
(** [observe_tick t ns] is [observe t (float_of_int ns /. 1e9)] —
    integer-nanosecond engine ticks, converted with exactly the
    [Time.to_sec] arithmetic so bin indices agree with offline binning
    of published timestamps — without boxing a float argument. The
    per-packet hot path. *)

val push : t -> float -> unit
(** Feed one already-binned count directly (closes one base bin). The
    offline-replay and property-test entry point. *)

val advance : t -> upto:float -> unit
(** Close every base bin that ends at or before [upto], zero-filling
    gaps — the same complete-bin rule as {!Netstats.Binned.counts}.
    Call once at end of run before querying. *)

val levels : t -> int

val bins : t -> int
(** Base bins closed so far. *)

val total : t -> int
(** Events counted since [origin]. *)

(** {2 Per-scale queries} — level [j] covers [2^j] base bins. *)

val scale_width : t -> int -> float
val scale_count : t -> int -> int
val scale_mean : t -> int -> float

val scale_variance : t -> int -> float
(** Sample variance of the block sums ([/(n-1)], 0 below two blocks) —
    identical arithmetic to {!Netstats.Welford}. *)

val cov : t -> int -> float option
(** Coefficient of variation at level [j]; [None] below two blocks or
    on a zero mean. [cov t 0] of an RTT-width aggregator reproduces
    the offline per-RTT c.o.v. exactly (same adds in the same order). *)

val idc : t -> int -> float option
(** Index of dispersion for counts at level [j] (variance/mean of the
    block sums); [None] below two blocks or on a zero mean. *)

val haar_count : t -> int -> int
(** Details accumulated at octave [j] (1-based; octave [j] pairs level
    [j-1] blocks). Raises on octaves outside [1, levels). *)

val haar_energy : t -> int -> float option
(** Mean squared L2-normalized Haar detail at octave [j]; [None] before
    the first pair. For i.i.d. counts it is flat across octaves. *)

val logscale : t -> (int * float) list
(** The logscale diagram: [(octave, log2 mean energy)] for octaves with
    at least 4 details and positive energy, ascending. *)

val hurst_wavelet : t -> float option
(** OLS slope of the logscale diagram mapped to a Hurst exponent
    [H = (slope + 1) / 2], clamped into [0, 1]; [None] below two
    usable octaves. White noise gives H ~ 0.5. *)

(** {2 Oscillation detector} *)

module Osc : sig
  type t

  val create : unit -> t
  (** The EWMA tracks at 0.02 per sample; the hysteresis band is half
      the EWMA absolute residual; a signal is flagged when the relative
      RMS amplitude reaches 0.2 with at least 8 detrended zero
      crossings. *)

  val sample : t -> tick:int -> float array -> unit
  (** [sample o ~tick cell] feeds the value [cell.(0)] at [tick]
      integer nanoseconds (read as [Record.time_of_tick tick] seconds).
      Allocates no minor words. *)

  val samples : t -> int
  val crossings : t -> int
  val mean_signal : t -> float
  val rms_residual : t -> float

  val rel_amplitude : t -> float
  (** RMS residual over the signal mean (0 on a non-positive mean). *)

  val frequency_hz : t -> float
  (** Crossings are half cycles: [crossings / (2 * observed span)]. *)

  val oscillating : t -> bool
end

(** {2 Summaries} — the frozen end-of-run view. *)

type scale_row = {
  level : int;
  scale_s : float;
  blocks : int;
  mean : float;
  s_cov : float option;
  s_idc : float option;
}

type osc_summary = {
  o_samples : int;
  o_mean : float;
  o_rms : float;
  o_rel_amplitude : float;
  o_crossings : int;
  o_frequency_hz : float;
  o_oscillating : bool;
}

type summary = {
  base_width_s : float;
  s_bins : int;
  s_total : int;
  scales : scale_row list;  (** levels with at least two blocks *)
  s_logscale : (int * float) list;
  s_hurst : float option;
  s_osc : osc_summary option;
}

val osc_summary : Osc.t -> osc_summary
val summary : ?osc:Osc.t -> t -> summary
val summary_to_json : summary -> Json.t
val osc_to_json : osc_summary -> Json.t
val pp_summary : Format.formatter -> summary -> unit

val export : Registry.t -> run:string -> summary -> unit
(** Set the [burst_*] gauges (labelled by [run], per-scale series by
    [scale_s]) in a metric registry for JSON/Prometheus exposition. *)

val record_summary : Recorder.lane -> tick:int -> sid:int -> summary -> unit
(** Emit the summary into a flight-recorder lane as [burst_cov] /
    [burst_idc] (one per populated scale, level in [a], value bits in
    [b]/[c], block count in [depth]), [burst_hurst], and the
    [burst_osc_*] pair. *)
