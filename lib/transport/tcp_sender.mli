(** The sending half of a TCP connection.

    Owns the send window, duplicate-ACK counting, fast-retransmit /
    fast-recovery state machine, retransmission timer (with Karn's rule)
    and go-back-N behaviour after a timeout — everything that is common to
    the congestion-control variants, which plug in as a {!Cc.variant}.

    Per-flow state lives in rows of a struct-of-arrays
    {!Netsim.Flow_table} shared by a {!group}: creating a group allocates
    the shared machinery (scheduler hooks, packet pool, CC context, two
    keyed timer callbacks) once, and {!attach}ing a flow claims one table
    row and allocates nothing else — which is what lets a single run
    carry 10^5 flows. A {!t} is a (group, generation-checked handle)
    pair; using one after {!detach} raises [Invalid_argument].

    The application submits segments with {!write} (1 segment = 1 MSS,
    matching the paper's one-packet-per-Poisson-arrival sources); segments
    queue in an unbounded send buffer until the window admits them, which
    is exactly the mechanism §3.2 blames for slow-start bursts. *)

type group
(** Shared state for a set of flows running the same variant and
    options over the same scheduler/pool. *)

type t
(** One flow: a group plus a generation-checked row handle. *)

val create_group :
  ?ecn_capable:bool ->
  ?sack:bool ->
  ?cwnd_validation:bool ->
  ?pacing:bool ->
  ?recorder:Telemetry.Recorder.t ->
  ?vegas:Cc.vegas_params ->
  ?capacity:int ->
  Sim_engine.Scheduler.t ->
  pool:Netsim.Packet_pool.t ->
  cc:Cc.variant ->
  rto_params:Rto.params ->
  mss_bytes:int ->
  adv_window:int ->
  transmit:(flow:int -> Netsim.Packet_pool.handle -> unit) ->
  group
(** [transmit ~flow p] injects a packet into the network (typically the
    flow's access link). [adv_window] is the receiver's static advertised
    window in packets; the effective window is [min cwnd adv_window],
    and it is also every flow's initial slow-start threshold.
    [capacity] (default 16) pre-sizes the flow table; pass the run's flow
    count so attaching never doubles the slab.

    Options (all default false): [ecn_capable] flags outgoing segments as
    ECN-capable and makes senders honour ECE echoes (one window reduction
    per RTT, no retransmission). [sack] enables selective-repeat
    recovery: a scoreboard built from the receiver's SACK blocks decides
    which holes to retransmit, and sending during recovery is governed by
    the pipe estimate instead of window inflation (RFC 2018/3517,
    simplified) — pair with [cc:Cc.Sack]. [cwnd_validation] applies
    RFC 2861: the window only grows while it is actually the limiting
    factor. [pacing] spreads new transmissions
    at srtt/cwnd intervals instead of ACK-clocked bursts
    (Aggarwal–Savage–Anderson); retransmissions are never paced.

    [recorder] (default absent) logs a [tcp_*] flight-recorder record for
    every congestion decision: timeout, fast retransmit and ECN
    reaction, each followed by a cwnd cut carrying the post-reaction
    window; in lifecycle mode it also logs phase transitions and RTT
    samples.
    @raise Invalid_argument on [adv_window < 1], [mss_bytes < 1] or
    [rto_params] out of range ({!Rto.bad_field}); the message names
    the field. *)

val attach :
  group -> flow:int -> src:int -> dst:int -> ?trace_cwnd:bool -> unit -> t
(** Claim a table row for one flow. [trace_cwnd] (default false) records
    (time, cwnd) into {!cwnd_trace} at every window change — off unless a
    figure plots this sender, because the trace costs boxed floats per
    ACK. *)

val detach : t -> unit
(** Cancel the flow's timers and release its row; every [t] for this
    flow is stale afterwards. @raise Invalid_argument if already
    detached. *)

val table : group -> Netsim.Flow_table.t
(** The group's flow table — live/leak accounting and the bytes-per-flow
    figure the flows bench gates. *)

val group : t -> group

val write : t -> int -> unit
(** Submit [n] more segments from the application. *)

val handle_packet : t -> Netsim.Packet_pool.handle -> unit
(** Feed an incoming packet (ACKs; anything else is ignored). The
    caller keeps ownership: the handle is read, never freed. *)

val cwnd : t -> float
val ssthresh : t -> float

val flight : t -> int
(** Outstanding (sent but unacknowledged) segments. *)

val backlog : t -> int
(** Segments submitted by the application but not yet transmitted. *)

val snd_una : t -> int
(** Lowest unacknowledged sequence number. *)

val stats : t -> Tcp_stats.t
(** Materialised from the flow's counter cells — a fresh record per
    call, for cold reporting paths. *)

val cwnd_trace : t -> Netstats.Series.t
(** (time, cwnd) recorded at every window change — Figures 5–12.
    Empty unless the flow was attached with [trace_cwnd:true]. *)

val in_recovery : t -> bool

val ecn_reactions : t -> int
(** How many times the sender reduced its window in response to ECE. *)
