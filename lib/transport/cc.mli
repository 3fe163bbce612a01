(** The congestion-control seam between the TCP engine and its variants.

    The engine ({!Tcp_sender}) owns segments, timers, ACK accounting and
    the recovery state machine; congestion policy owns [cwnd]/[ssthresh].
    Policy state lives in the float row of the flow table
    ({!Netsim.Flow_table}, laid out by {!Flow_layout}), and every
    operation below takes the float array plus the row's base offset —
    dispatching on an immediate {!variant} tag, so 10^5 flows share one
    policy implementation and zero closures.

    Windows are in packets and may be fractional. *)

type ack_info = {
  mutable ack : int;  (** cumulative ACK: next expected sequence *)
  mutable newly_acked : int;  (** segments this ACK newly covers *)
  mutable rtt_ns : int;
      (** clean (Karn) RTT sample in integer nanoseconds; negative when
          this ACK carries no usable sample *)
  mutable flight_before : int;  (** outstanding segments before this ACK *)
}
(** Mutable and all-immediate on purpose: the engine keeps {e one}
    [ack_info] per sender group and rewrites it for every ACK, so the
    per-ACK hot path allocates neither a record nor a boxed float.
    Policies must read the fields during the callback and copy what they
    need — the record is dead the moment the callback returns. *)

val make_ack_info : unit -> ack_info
(** A scratch [ack_info] (no sample, all counters zero). *)

(** {2 Variants} *)

type variant =
  | Reno
      (** Tahoe plus fast recovery: on the third duplicate ACK [ssthresh]
          and [cwnd] drop to half the flight, the window inflates by one
          per further duplicate ACK and deflates to [ssthresh] on the
          first new ACK; a timeout restarts slow start from [cwnd = 1].
          The paper's primary protagonist (§2.1, §3.2). *)
  | Newreno
      (** Reno, but a partial ACK retransmits the next hole, deflates the
          window by the amount acknowledged and stays in fast recovery
          (RFC 2582). *)
  | Tahoe
      (** [Jac88], no fast recovery: any loss indication halves
          [ssthresh] and restarts slow start from [cwnd = 1]. *)
  | Vegas
      (** Brakmo & Peterson 1995: once per RTT epoch steers the queued
          estimate [cwnd * (1 - baseRTT/RTT)] into [\[alpha, beta\]];
          slow start doubles every other RTT and ends above [gamma];
          losses cut by 3/4 and a timeout restarts from 2. *)
  | Sack
      (** Reno's multiplicative decrease without window inflation: the
          engine's pipe estimate governs sending in recovery, and partial
          ACKs stay in recovery (RFC 3517 style). *)

type vegas_params = { alpha : float; beta : float; gamma : float }
(** Vegas's queue-occupancy band and slow-start exit threshold,
    in packets. *)

val default_vegas : vegas_params
(** alpha 1, beta 3, gamma 1 (Brakmo & Peterson). *)

type ctx = { variant : variant; max_window : float; vp : vegas_params }
(** Per-group policy context: shared by every flow in a sender group. *)

val make_ctx : ?vegas:vegas_params -> max_window:float -> variant -> ctx
(** @raise Invalid_argument on a bad [alpha]/[beta]/[gamma]. *)

val floats_per_flow : variant -> int
(** Float cells a row of this variant needs ({!Flow_layout.sender_floats}
    or {!Flow_layout.vegas_floats}). *)

val uses_fast_recovery : variant -> bool
(** False for Tahoe: after a fast retransmit the engine restarts from
    the ACK point in slow start rather than entering recovery. *)

val partial_ack_stays : variant -> bool
(** True for NewReno/SACK: partial ACKs keep the connection in recovery
    until the recovery point is passed. *)

(** {2 Table operations}

    All take the row's float array and base offset ([fs], [fb]) and
    mutate [cwnd]/[ssthresh]/variant state in place, allocation-free. *)

val init : ctx -> float array -> int -> initial_ssthresh:float -> unit
(** Initialise a freshly-zeroed row (cwnd 1, or 2 with base-RTT state
    for Vegas). *)

val cwnd : float array -> int -> float

val ssthresh : float array -> int -> float

val in_slow_start : float array -> int -> bool
(** [cwnd < ssthresh] without boxing either float. *)

val on_new_ack : ctx -> float array -> int -> ack_info -> unit
(** A cumulative ACK advancing the window, outside recovery. *)

val enter_recovery : ctx -> float array -> int -> flight:int -> now:float -> unit
(** Third duplicate ACK; the engine retransmits the head segment. *)

val dup_ack_inflate : ctx -> float array -> int -> unit
(** Each further duplicate ACK while in recovery. *)

val on_partial_ack : ctx -> float array -> int -> ack_info -> unit
(** In recovery, ACK advances but below the recovery point (only
    reached when {!partial_ack_stays} is true). *)

val on_full_ack : ctx -> float array -> int -> ack_info -> unit
(** Recovery completes (deflate / resume normal growth). *)

val on_timeout : ctx -> float array -> int -> flight:int -> now:float -> unit

val on_ecn : ctx -> float array -> int -> flight:int -> now:float -> unit
(** An ECN congestion-experienced echo arrived; reduce the window as
    for a loss, but nothing needs retransmitting. The engine rate-
    limits this to once per RTT. *)

(** {2 Helpers shared by AIMD-family variants} *)

val halve_flight : flight:int -> float
(** [max (flight/2) 2] — the multiplicative-decrease target. *)
