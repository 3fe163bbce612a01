(** Retransmission-timeout estimation (Jacobson/Karn).

    Maintains smoothed RTT and RTT variance from clean samples (Karn's rule:
    retransmitted segments are never sampled — enforced by the caller) and
    applies binary exponential backoff across successive timeouts. Samples
    are quantized to a clock granularity, as in BSD-derived stacks. *)

type params = {
  granularity : float;  (** timer tick, seconds (BSD: 0.5; ns: 0.1) *)
  min_rto : float;  (** lower bound, seconds *)
  max_rto : float;  (** upper bound, seconds *)
  initial_rto : float;  (** before the first sample *)
}

val default_params : params
(** granularity 0.1 s, min 1 s, max 64 s, initial 3 s. *)

val bad_field : params -> string option
(** The first field out of range, if any: [granularity], [min_rto] and
    [initial_rto] must be positive, [max_rto] at least [min_rto], and
    every value finite and below the clock's tick horizon (each becomes
    integer nanoseconds). {!Tcp_sender.create_group} and
    [Config.validate] reject such params by this field's name. *)

(** {2 Flow-table rows}

    The estimator runs over a flow-table row's float region
    ([Flow_layout.f_srtt]/[f_rttvar]/[f_backoff] at base [fb]). The
    caller owns the have-sample bit (a flag in its int row): it passes
    [~first]/[~have_sample] and flips the flag itself after the first
    observation. *)

val init_at : float array -> int -> unit
(** Initialise a freshly-zeroed row (backoff multiplier 1). *)

val observe_ns_at : params -> float array -> int -> first:bool -> int -> unit
(** Feed one clean sample in integer nanoseconds; [first] means no
    sample has been observed yet. Resets any backoff. An immediate
    argument crosses the call unboxed, a float would not.
    @raise Invalid_argument on a negative sample. *)

val rto_ns_at : params -> float array -> int -> have_sample:bool -> int
(** Current timeout in integer nanoseconds, including backoff, clamped
    to [\[min_rto, max_rto\]]; equals [Time.to_ns (Time.of_sec v)] for
    the timeout [v] in seconds. *)

val backoff_at : float array -> int -> unit
(** Doubles the timeout (the multiplier caps at 64); call on each
    expiry. *)

val reset_backoff_at : float array -> int -> unit
(** Call when new data is acknowledged. *)
