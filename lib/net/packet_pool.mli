(** Pooled packets: a struct-of-arrays slab with generation-guarded
    handles.

    Every in-flight packet lives in one {e slot} of a pool — its fields
    spread over parallel [int] arrays (uid, flow, src, dst, size,
    sequence-or-ack word, sent-at ticks) plus one packed flags word for
    the booleans and the payload kind. Transports, queue discs and links
    pass a {!handle} — a single immediate [int] packing
    [(slot, generation)] exactly like [Sim_engine.Event_queue] — so the
    per-packet datapath neither allocates nor touches the write barrier.
    The rare SACK block lists ride in a side table indexed by slot.

    Ownership is linear: whoever removes a packet from the datapath — a
    dropping queue disc via its link, or the endpoint sink that ends a
    host's last link — must {!free} it, which recycles the slot through a free list and bumps
    its generation. Using a handle after its slot was freed (or
    recycled) raises [Invalid_argument] from every accessor: a loud
    generation-check failure instead of silent corruption.

    Sequence numbers count packets (1 packet = 1 MSS), as in ns. *)

type t
(** A pool; one per independent simulation. *)

type handle = int
(** Immediate (slot, generation) pair; never [nil] when returned by an
    allocator. *)

val nil : handle
(** A handle no allocator returns; every accessor rejects it. Use as the
    "no packet" sentinel where an [option] would allocate. *)

val is_nil : handle -> bool

val create : ?capacity:int -> unit -> t
(** [capacity] (default 256) pre-sizes the slab; it grows by doubling. *)

(** {2 Allocation and release} *)

val alloc_data :
  t ->
  ?ecn_capable:bool ->
  flow:int ->
  src:int ->
  dst:int ->
  size_bytes:int ->
  sent_at:Sim_engine.Time.t ->
  seq:int ->
  is_retransmit:bool ->
  unit ->
  handle
(** One MSS of TCP payload with (packet-granular) sequence number.
    @raise Invalid_argument on non-positive [size_bytes]. *)

val alloc_ack :
  t ->
  ?ecn_capable:bool ->
  flow:int ->
  src:int ->
  dst:int ->
  size_bytes:int ->
  sent_at:Sim_engine.Time.t ->
  ack:int ->
  ece:bool ->
  sack:(int * int) list ->
  unit ->
  handle
(** Cumulative ACK: [ack] is the next expected sequence number; [ece]
    echoes an ECN congestion-experienced mark back to the sender
    (RFC 3168, simplified: no CWR handshake); [sack] lists up to four
    [(first, last_exclusive)] blocks of out-of-order data the receiver
    holds (RFC 2018), empty when SACK is off. *)

val alloc_udp :
  t ->
  flow:int ->
  src:int ->
  dst:int ->
  size_bytes:int ->
  sent_at:Sim_engine.Time.t ->
  seq:int ->
  unit ->
  handle

val import :
  t ->
  uid:int ->
  flow:int ->
  src:int ->
  dst:int ->
  size_bytes:int ->
  sent_at:Sim_engine.Time.t ->
  word:int ->
  flags:int ->
  sack:(int * int) list ->
  handle
(** Rehydrate a packet shipped from another pool across a PDES shard
    boundary: [uid], the raw [flags] word (from {!flags_word}) and every
    other field are taken verbatim, so the imported packet is
    indistinguishable from one allocated here. @raise Invalid_argument
    when [flags] has empty kind bits or [size_bytes] is non-positive. *)

val set_uid_source : t -> (int -> int) option -> unit
(** [set_uid_source t (Some f)] makes allocators stamp packets with
    [f flow] instead of the pool-global allocation counter. A sharded
    run installs per-flow counters so uids are a pure function of
    per-flow history — independent of how allocations from different
    flows interleave within a shard. [None] (the default) restores the
    global counter. *)

val free : t -> handle -> unit
(** Return the slot to the free list and invalidate every outstanding
    handle to it. @raise Invalid_argument if already freed (stale). *)

(** {2 Field access}

    All accessors validate the handle's generation and raise
    [Invalid_argument] on a stale, freed or [nil] handle. *)

val uid : t -> handle -> int
(** Unique per pool; allocation order. *)

val flow : t -> handle -> int
val src : t -> handle -> int
val dst : t -> handle -> int
val size_bytes : t -> handle -> int
val sent_at : t -> handle -> Sim_engine.Time.t

val ecn_capable : t -> handle -> bool
val ecn_ce : t -> handle -> bool
val set_ecn_ce : t -> handle -> unit
(** Congestion experienced — set by a marking queue. *)

type kind = Tcp_data | Tcp_ack | Udp_data

val kind : t -> handle -> kind
val is_data : t -> handle -> bool
(** True for [Tcp_data] and [Udp_data]. *)

val is_retransmit : t -> handle -> bool

val is_retransmitted_data : t -> handle -> bool
(** [is_data && is_retransmit] in a single validated load — the router
    asks this of every forwarded packet when a recorder is wired. *)

val seq : t -> handle -> int
(** The sequence-or-ack word: data/UDP sequence number, or the
    cumulative ack of a [Tcp_ack]. *)

val ack : t -> handle -> int
(** Synonym for {!seq}, read on ACKs. *)

val seq_opt : t -> handle -> int option
(** [Some] data sequence number, [None] for ACKs — the telemetry
    convention inherited from the record representation. *)

val ece : t -> handle -> bool
val sack : t -> handle -> (int * int) list

val flags_word : t -> handle -> int
(** The raw packed flags word (kind bits + booleans), for shipping a
    packet across a shard boundary via {!import}. *)

val word : t -> handle -> int
(** The raw sequence-or-ack word, kind-agnostic — {!seq} and {!ack}
    without the interpretation. *)

(** {2 Batched field reads}

    The flight recorder reads four fields per packet hook; validating
    the handle once and reading the rest unchecked keeps the recorded
    hot path under the overhead budget. [slot_exn] performs the full
    generation check of the plain accessors; the [_at] readers trust
    the returned slot and must only ever be fed one. *)

val slot_exn : t -> handle -> int
(** The handle's slot, after the same staleness check as every plain
    accessor. @raise Invalid_argument on a stale or [nil] handle. *)

val uid_at : t -> int -> int

val flow_at : t -> int -> int

val size_bytes_at : t -> int -> int

val data_seq_at : t -> int -> default:int -> int
(** The data/UDP sequence number, or [default] for an ACK — the
    unchecked twin of {!seq_opt}. *)

(** {2 Accounting} *)

val live : t -> int
(** Currently allocated packets — 0 after a leak-free run reclaims. *)

val high_water_mark : t -> int
(** Peak simultaneous live packets: the steady-state working set. *)

val allocated : t -> int
(** Total allocations ever (= the next packet's uid). *)

val pp : t -> Format.formatter -> handle -> unit
