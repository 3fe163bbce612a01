(** The receiving half of a TCP connection.

    Reassembles segments, delivers them to the application in order, and
    generates cumulative ACKs — immediately for out-of-order or duplicate
    arrivals (producing the duplicate ACKs that drive fast retransmit), and
    either immediately or via the standard delayed-ACK rule (every second
    segment or a 200 ms timer) for in-order arrivals. The paper compares
    Reno with delayed ACKs on and off.

    Per-flow state is one int row of a struct-of-arrays
    {!Netsim.Flow_table} shared by a {!group} (see {!Tcp_sender} for the
    pattern); out-of-order buffering is a direct-mapped bitset over the
    reassembly window, so {!attach}ing a flow allocates nothing beyond
    its row. *)

type group
(** Shared state for a set of receiving flows with the same options. *)

type t
(** One flow: a group plus a generation-checked row handle. *)

val create_group :
  ?sack:bool ->
  ?recorder:Telemetry.Recorder.t ->
  ?capacity:int ->
  Sim_engine.Scheduler.t ->
  pool:Netsim.Packet_pool.t ->
  ack_bytes:int ->
  delayed_ack:bool ->
  adv_window:int ->
  transmit:(flow:int -> Netsim.Packet_pool.handle -> unit) ->
  group
(** [sack] (default false) attaches RFC 2018 selective-acknowledgment
    blocks describing buffered out-of-order data to every ACK.
    [recorder] (lifecycle mode only) logs out-of-order buffering and
    duplicate discards to the flight recorder. [adv_window] sizes the
    reassembly window (it must match the senders' advertised window);
    a data segment beyond it raises [Invalid_argument]. [capacity]
    (default 16) pre-sizes the flow table.
    @raise Invalid_argument on [adv_window < 1]. *)

val attach : group -> flow:int -> src:int -> dst:int -> unit -> t
(** Claim a table row. [src] is the receiver's node (ACK source);
    [dst] the sender's. *)

val detach : t -> unit
(** Cancel the flow's delayed-ACK timer and release its row.
    @raise Invalid_argument if already detached. *)

val table : group -> Netsim.Flow_table.t
(** The group's flow table — live/leak accounting and bytes-per-flow. *)

val group : t -> group

val handle_packet : t -> Netsim.Packet_pool.handle -> unit
(** Feed an incoming packet (TCP data; anything else is ignored). The
    caller keeps ownership: the handle is read, never freed. *)

val delivered : t -> int
(** Segments delivered to the application in order. *)

val acks_sent : t -> int

val duplicates_discarded : t -> int
(** Data segments received that were already delivered or buffered. *)
