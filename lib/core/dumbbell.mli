(** The paper's network model (Figure 1): N clients on dedicated access
    links into a common gateway, one bottleneck link to the server.

    The clients — their access links and transport endpoints — have one
    builder ({!build_clients}) and one teardown ({!finish_clients}),
    which both engines call: {!create} builds the classic single-domain
    dumbbell around one slice [\[0, N)], and the sharded {!Pdes} engine
    builds one slice per shard around its own hub. Traffic sources are
    attached separately ({!start_poisson}, or any source through
    {!sink}), so the same topology serves the paper's Poisson workload
    and the bulk-transfer examples.

    The pieces the builder wires each client from — the lossless access
    link ({!access_link}), the TCP group pair ({!tcp_groups}) and the
    endpoint sinks ({!sender_sink}, {!receiver_sink}) — are exported so
    that other topologies ({!Twoway}, {!Parking_lot}) build their hosts
    the same way. *)

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
(** The congestion-control variant tag plus its parameters, if any, as
    {!tcp_groups} passes them to {!Transport.Tcp_sender.create_group}. *)

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

(** {2 Hosts} *)

val access_link :
  Config.t ->
  Sim_engine.Scheduler.t ->
  Netsim.Packet_pool.t ->
  name:string ->
  delay:Sim_engine.Time.span ->
  deliver:(Netsim.Packet_pool.handle -> unit) ->
  Netsim.Link.t
(** A host's access link at [cfg.client_bandwidth_mbps]. It never drops:
    in the paper's model only the gateway buffer is finite. *)

val tcp_groups :
  recorder:Telemetry.Recorder.t option ->
  Config.t ->
  Scenario.t ->
  Sim_engine.Scheduler.t ->
  Netsim.Packet_pool.t ->
  capacity:int ->
  data:(flow:int -> Netsim.Packet_pool.handle -> unit) ->
  ack:(flow:int -> Netsim.Packet_pool.handle -> unit) ->
  Transport.Tcp_sender.group * Transport.Tcp_receiver.group
(** The one sender group and the one receiver group of a topology, with
    table room for [capacity] flows. Their options come from [cfg] and
    the scenario: its cc ({!make_cc}; SACK blocks when the cc is
    [Sack]), its delayed ACKs, ECN when its gateway is [Red_ecn].
    Senders transmit through [data ~flow], receivers' ACKs leave through
    [ack ~flow]. [recorder], if any, is given to both groups.
    @raise Invalid_argument on a UDP scenario. *)

val sender_sink :
  Netsim.Packet_pool.t -> Transport.Tcp_sender.t -> Netsim.Packet_pool.handle -> unit
(** [sender_sink pool s] ends a down link at sender [s]: [s] reads each
    packet, then the handle is freed. *)

val receiver_sink :
  Netsim.Packet_pool.t ->
  Transport.Tcp_receiver.t ->
  Netsim.Packet_pool.handle ->
  unit
(** [receiver_sink pool r] ends a down link at receiver [r], as
    {!sender_sink}. *)

(** {2 Clients} *)

type clients
(** Clients [\[lo, lo + n)] of one engine domain: their up and down
    access links and their transport endpoints, all on one scheduler
    and packet pool. *)

type exit =
  | Deliver of (Netsim.Packet_pool.handle -> unit)
      (** the far end is in this domain: deliver after the propagation
          delay *)
  | Handoff of (Sim_engine.Time.t -> Netsim.Packet_pool.handle -> unit)
      (** the far end is another domain: hand each packet over at
          serialization end with its arrival time
          ({!Netsim.Link.set_handoff}) *)

val build_clients :
  recorder:Telemetry.Recorder.t option ->
  trace_clients:int list ->
  Config.t ->
  Scenario.t ->
  Sim_engine.Scheduler.t ->
  Netsim.Packet_pool.t ->
  lo:int ->
  n:int ->
  up_delay:(int -> Sim_engine.Time.span) ->
  down_delay:(int -> Sim_engine.Time.span) ->
  data:exit ->
  ack:(Netsim.Packet_pool.handle -> unit) ->
  clients
(** Build clients [\[lo, lo + n)] in client order: for TCP one
    {!tcp_groups} pair of [n] rows (each client's sender attached
    before its receiver, with a cwnd trace when its index is in
    [trace_clients]), for UDP one sender/receiver pair per client.
    Client [i] is host [i + 1], the server host 0. Client [i]'s
    {!access_link} up has delay [up_delay i] and leaves through [data];
    its down link has delay [down_delay i] and ends at its
    {!sender_sink}. Receivers' ACKs leave through [ack]. [recorder], if
    any, is given to both TCP groups, as in {!create}. *)

val start_poisson : Config.t -> master:Sim_engine.Rng.t -> clients -> unit
(** Start every client's {!poisson_source} on the slice's scheduler, in
    client order; {!finish_clients} counts what they offered. *)

val deliver_data : clients -> Netsim.Packet_pool.handle -> unit
(** A data packet at the server: its flow's receiver reads it, then the
    handle is freed. *)

val deliver_ack : clients -> Netsim.Packet_pool.handle -> unit
(** An ACK entering its flow's down link. *)

val finish_tcp :
  links:Netsim.Link.t list ->
  pool:Netsim.Packet_pool.t ->
  Transport.Tcp_sender.group * Transport.Tcp_receiver.group ->
  (Transport.Tcp_sender.t * Transport.Tcp_receiver.t) list ->
  unit
(** The end-of-run teardown of a topology wired from these pieces
    around one {!tcp_groups} pair and one pool, after its scheduler
    stopped, with the leak checks of {!finish_clients}: reclaim every
    link in [links] (freeing what the horizon left queued or in flight)
    and check that [pool] holds no live packet, then detach each
    connection's endpoints and check that neither group's table holds a
    row. @raise Failure when a packet or a flow-table row leaked. *)

val finish_clients :
  links:Netsim.Link.t list ->
  pool:Netsim.Packet_pool.t ->
  trace_clients:int list ->
  clients list ->
  (Meter.endpoints -> 'a) ->
  'a
(** The end-of-run teardown, after the scheduler(s) stopped. The slices
    must tile [\[0, N)] in order; [links] are the engine's own links and
    [pool] theirs. In order: reclaim [links] and every access link, and
    check that [pool] and every slice pool hold no live packet; build
    the {!Meter.endpoints} ([offered] counts the sources
    {!start_poisson} started; [cwnd_traces] follows [trace_clients],
    TCP only) and pass them to the continuation; detach every endpoint
    and check that no flow-table row is left.
    @raise Failure when a packet or a flow-table row leaked. *)

(** {2 The classic dumbbell} *)

val scheduler : t -> Sim_engine.Scheduler.t

val rng : t -> Sim_engine.Rng.t
(** The run's master RNG; split it for sources. *)

val pool : t -> Netsim.Packet_pool.t
(** The packet pool every node, link and transport of this topology
    allocates from. *)

val bottleneck : t -> Netsim.Link.t
(** The gateway → server link whose queue is the discipline under test
    ({!Netsim.Link.queue_disc}); {!Meter} reads every metric off it. *)

val clients : t -> clients
(** The one slice, clients [\[0, N)]. *)

val sink : t -> int -> int -> unit
(** [sink t i n] submits [n] application packets on client [i]'s
    transport. *)

val per_client_delivered : t -> int array
(** In-order segments (TCP) or datagrams (UDP) delivered per client so
    far. *)

val delivered_total : t -> int

val finish : t -> (Meter.endpoints -> 'a) -> 'a
(** {!finish_clients} over the bottleneck pair and the one slice, with
    the [trace_clients] given to {!create}. *)

(** {2 Flow-table accounting}

    TCP endpoints live as rows of two shared struct-of-arrays slabs
    (one sender table, one receiver table); UDP scenarios report 0. *)

val flow_table_growths : t -> int
(** Capacity doublings across both tables; 0 means the client-count
    pre-size held for the whole run. *)

val flow_table_bytes_per_flow : t -> int
(** Bytes one flow costs across both tables — the figure the flows
    bench gates (≤ 512 B at the paper's advertised window). *)

val flow_table_footprint_bytes : t -> int
(** Total slab bytes at current capacity. *)
