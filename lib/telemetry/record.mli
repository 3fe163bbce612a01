(** Fixed-width binary trace records: the flight recorder's wire unit.

    A record is {!words} consecutive integer words

    {v [tick; kind; flow; a; b; c; sid; depth] v}

    where [tick] is integer-nanosecond simulation time, [kind] one of
    the codes below, [sid] an interned-string id (0 = none) and
    [depth] the instantaneous queue depth at the recording site.
    Floats travel exactly as the two 32-bit halves of their IEEE-754
    bits in [b]/[c].

    Kinds [0..10] ("parity" kinds) mirror {!Event_bus.event}
    one-to-one: the bus and [--trace-out] are exactly their decode, and
    {!ndjson_writer} renders them through the bus's own renderer.
    Kinds [>= 11] are lifecycle
    extensions (phases, RTT samples, receiver reordering, router
    retransmit forwards, run markers) that exist only in the binary
    stream. *)

val words : int
(** Words per record (8). *)

(** {1 Kind codes} *)

val packet_arrival : int
val packet_drop : int
val packet_depart : int
val tcp_timeout : int
val tcp_fast_retransmit : int
val tcp_cwnd_cut : int
val tcp_ecn_reaction : int
val queue_ecn_mark : int
val queue_early_drop : int
val queue_forced_drop : int
val custom_value : int
val tcp_phase : int
val tcp_rtt : int
val rcv_out_of_order : int
val rcv_duplicate : int
val router_rtx_forward : int
val run_start : int
val run_end : int

val burst_cov : int
(** End-of-run {!Telemetry.Burst} summary: c.o.v. per timescale (level
    in [a], IEEE-754 value bits in [b]/[c], block count in [depth]). *)

val burst_idc : int
(** Index of dispersion per timescale, same layout as [burst_cov]. *)

val burst_hurst : int
(** Wavelet Hurst estimate (octaves used in [a], value in [b]/[c]). *)

val burst_osc_amp : int
(** Oscillation detector relative amplitude (crossings in [a], value in
    [b]/[c], verdict 0/1 in [depth]). *)

val burst_osc_freq : int
(** Oscillation frequency in Hz, same layout as [burst_osc_amp]. *)

val hybrid_bg_window : int
(** End-of-run hybrid-engine summary: mean per-flow background window
    (background flow count in [a], IEEE-754 value bits in [b]/[c],
    quantum count in [depth]). *)

val hybrid_bg_queue : int
(** Mean virtual background backlog (packets), same layout. *)

val hybrid_bg_rate : int
(** Mean background arrival rate (packets/s), same layout. *)

val max_kind : int

val is_parity : int -> bool
(** True for kinds that map one-to-one onto {!Event_bus.event}. *)

val kind_label : int -> string
val kind_of_label : string -> int option

(** {1 TCP phase codes} (the [a] word of [tcp_phase] records) *)

val phase_slow_start : int
val phase_cong_avoid : int
val phase_recovery : int
val phase_timeout : int
val phase_label : int -> string

val no_seq : int
(** Sentinel in the [c] word of packet records for [seq = None]. *)

(** {1 Exact float transport} *)

val float_hi : float -> int
(** High 32 bits of [Int64.bits_of_float], in [\[0, 2{^32})]. *)

val float_lo : float -> int
(** Low 32 bits of [Int64.bits_of_float], in [\[0, 2{^32})]. *)

val bits_of_nonneg_int : int -> int
(** IEEE-754 bits of [float_of_int n] ([n >= 0], exact below 2{^52})
    computed in pure integer arithmetic — for hot paths that must not
    box a float. [bits lsr 32] / [bits land 0xFFFF_FFFF] are the
    {!float_hi} / {!float_lo} words. *)

val float_of_parts : hi:int -> lo:int -> float
(** Exact inverse of {!float_hi}/{!float_lo} (including NaN payloads,
    infinities and negative zero). *)

val time_of_tick : int -> float
(** [float_of_int tick /. 1e9] — exactly the engine's tick-to-seconds
    conversion, so decoded timestamps match published ones byte for
    byte. *)

(** {1 Binary word codec}

    64-bit little-endian two's complement, the order of both the
    in-memory lane and the segment file, header words included;
    OCaml's 63-bit ints round-trip exactly. *)

val set_word : Bytes.t -> int -> int -> unit
(** Unchecked little-endian 64-bit store, one store on a little-endian
    host. The caller guarantees [pos + 8 <= length]. *)

val get_word : Bytes.t -> int -> int
(** Unchecked little-endian load, twin of {!set_word}. *)

(** {1 Decoding to events / JSON} *)

val event_of_record :
  lookup:(int -> string) -> int array -> int -> Event_bus.event option
(** [Some event] for parity kinds, [None] for lifecycle kinds.
    [lookup] resolves interned-string ids. *)

val json_of_record : lookup:(int -> string) -> int array -> int -> Json.t
(** JSON for any kind; parity kinds go through {!Event_bus.to_json}, so
    the tree renders to the bytes of the bus's NDJSON. *)

val ndjson_writer :
  out_channel -> lookup:(int -> string) -> int array -> int -> unit
(** [ndjson_writer oc] writes one NDJSON line per record to [oc]: a
    parity record through one {!Event_bus.ndjson_writer}, so its line is
    the bus's byte for byte, any other kind as [Json.to_string
    (json_of_record ...)]. The caller owns (and flushes/closes) the
    channel. *)
