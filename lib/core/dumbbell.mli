(** The paper's network model (Figure 1): N clients on dedicated access
    links into a common gateway, one bottleneck link to the server.

    Building a dumbbell wires nodes, links, the gateway router, the queue
    discipline under test and one transport connection per client; traffic
    sources are attached separately through {!sink}, so the same topology
    serves the paper's Poisson workload and the bulk-transfer examples.
    The sharded {!Pdes} engine builds its own split topology from the
    same {!gateway_queue}, {!make_cc}, {!client_delays} and
    {!poisson_source}. *)

type t

val create :
  ?recorder:Telemetry.Recorder.t ->
  ?trace_clients:int list ->
  Config.t ->
  Scenario.t ->
  t
(** Fresh scheduler, RNG streams, packet pool, topology and transports.
    When [recorder] is given, the gateway queue discipline (as
    ["gateway"]) logs its drop and mark decisions to it and TCP senders
    their congestion decisions; in lifecycle mode the router and
    receivers are wired too (retransmit forwards, reordering).
    [trace_clients] (default none) lists client indices whose senders
    record a congestion-window trace; tracing costs boxed floats per
    ACK, so it is opt-in. *)

val client_delays : Config.t -> Sim_engine.Time.t array
(** Each client's access-link delay: [client_delay_s], or with a spread
    a uniform draw from [client_delay_s +/- spread/2] (floored at
    0.1 ms), in client order from the seed's ["client-delays"] stream. *)

val poisson_source :
  Config.t ->
  master:Sim_engine.Rng.t ->
  Sim_engine.Scheduler.t ->
  int ->
  sink:(int -> unit) ->
  Traffic.Source.t
(** Client [i]'s Poisson application on [sched] until [cfg.duration_s],
    drawing from [master]'s ["client-%d"] stream without advancing
    [master], from a uniform offset in [\[0, start_stagger_s\]]. *)

val make_cc :
  Config.t ->
  Scenario.cc_kind ->
  Transport.Cc.variant * Transport.Cc.vegas_params option
(** The congestion-control variant tag plus its parameters, if any —
    shared with the sharded {!Pdes} builder and {!Twoway}. *)

val gateway_queue :
  ?recorder:Telemetry.Recorder.t ->
  Config.t ->
  Scenario.t ->
  Sim_engine.Rng.t ->
  Netsim.Packet_pool.t ->
  Netsim.Queue_disc.t
(** Build the scenario's gateway queue discipline (RED splits
    ["red-gateway"] off the given master RNG), its decisions logged to
    [recorder] as ["gateway"] when one is given — shared with {!Pdes}. *)

val scheduler : t -> Sim_engine.Scheduler.t

val rng : t -> Sim_engine.Rng.t
(** The run's master RNG; split it for sources. *)

val pool : t -> Netsim.Packet_pool.t
(** The packet pool every node, link and transport of this topology
    allocates from. *)

val reclaim : t -> unit
(** Free every packet still queued or in flight on any link — call after
    the scheduler stops so {!Netsim.Packet_pool.live} returns 0 for a
    leak-free run. *)

val bottleneck : t -> Netsim.Link.t
(** The gateway → server link whose queue is the discipline under test
    ({!Netsim.Link.queue_disc}); {!Meter} reads every metric off it. *)

val sink : t -> int -> int -> unit
(** [sink t i n] submits [n] application packets on client [i]'s
    transport. *)

val tcp_sender : t -> int -> Transport.Tcp_sender.t option
(** [None] for UDP scenarios. *)

val per_client_delivered : t -> int array
(** In-order segments (TCP) or datagrams (UDP) delivered per client. *)

val delivered_total : t -> int

val tcp_stats_total : t -> Transport.Tcp_stats.t
(** All-zero for UDP scenarios. *)

val segments_sent_total : t -> int
(** Data packets put on the wire by all clients (TCP: includes
    retransmissions; UDP: datagrams). *)

val ecn_reactions_total : t -> int
(** Window reductions the senders performed in response to ECE echoes. *)

(** {2 Flow-table accounting}

    TCP endpoints live as rows of two shared struct-of-arrays slabs
    (one sender table, one receiver table); UDP scenarios report 0 and
    release is a no-op. *)

val release_flows : t -> unit
(** Detach every TCP endpoint, cancelling its timers and freeing its
    rows — call after metrics are collected so {!flows_live} returns 0
    for a leak-free run. *)

val flows_live : t -> int
(** Rows still allocated across both tables. *)

val flow_table_growths : t -> int
(** Capacity doublings across both tables; 0 means the client-count
    pre-size held for the whole run. *)

val flow_table_bytes_per_flow : t -> int
(** Bytes one flow costs across both tables — the figure the flows
    bench gates (≤ 512 B at the paper's advertised window). *)

val flow_table_footprint_bytes : t -> int
(** Total slab bytes at current capacity. *)
