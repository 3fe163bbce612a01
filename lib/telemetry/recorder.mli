(** Binary flight recorder: one preallocated lane of fixed-width
    {!Record} words.

    A recorder owns one intern table and at most one {e lane}, created
    by the first [lane t 0], whose records are read back in the order
    they were written. Every recording site writes that lane of its
    run's own recorder; the runs of a parallel sweep each have their
    own recorder, whose segments [Probe.merge] carries back in input
    order.

    The hot path ({!record}) performs only unboxed 64-bit stores into a
    preallocated [Bytes] buffer — zero minor words per record in ring
    mode, and the buffer is opaque to the GC, so a multi-megabyte lane
    adds nothing to major-collection work.

    Overflow policies: [Drop_oldest] keeps the newest [capacity]
    records (always-on mode, bounded memory); [Grow] adds another
    [capacity]-record buffer when one fills, copying nothing and
    losing no record.

    On disk, a {e segment} is: the magic ["BFRC0001"], the label, the
    intern table, then tagged blocks (1 = record chunk, 2 = lane
    summary, 0 = end), each lane block naming lane 0. Segments
    concatenate; all integers are 64-bit little-endian
    ({!Record.set_word}) — the lane's own word order, so
    {!write_segment} emits lane slices whole and {!read_segments} reads
    each chunk in one block. *)

type overflow = Drop_oldest | Grow

type config = { capacity : int; overflow : overflow; lifecycle : bool }
(** [capacity] is in records per lane buffer (rounded up to a power of
    two, at least 16, so the ring index is a mask);
    [lifecycle] enables the non-parity record kinds (phases, RTT
    samples, receiver reordering, router forwards, run markers) at
    the instrumentation sites. *)

val default_config : config
(** 65536 records per buffer, [Grow], lifecycle on. *)

type t

type lane

val create : ?label:string -> config -> t

val config : t -> config
val lifecycle : t -> bool
val label : t -> string
val finished : t -> bool

val intern : t -> string -> int
(** Get-or-assign the id of a string. Ids are only assignable before
    {!write_segment}; instrument at wiring time, not per event.
    @raise Invalid_argument after the segment has been written. *)

val lookup : t -> int -> string
(** [lookup t] resolves interned ids as the table stands now (["?id"]
    for an unknown one; id 0 is always [""]), one physical string per
    id: the [lookup] the {!Record} decoders take. *)

val lane : t -> int -> lane
(** [lane t 0] is the recorder's lane, created (its first buffer
    allocated) on the first call.
    @raise Invalid_argument for any other id, or when the first call
    comes after the segment has been written. *)

val record :
  lane ->
  tick:int ->
  kind:int ->
  flow:int ->
  a:int ->
  b:int ->
  c:int ->
  sid:int ->
  depth:int ->
  unit
(** Append one record. Allocation-free in ring mode; amortized
    allocation-free in grow mode. *)

val recorded : lane -> int
(** Records ever offered to this lane. *)

val lane_dropped : lane -> int
(** Records overwritten in ring mode. *)

val retained : lane -> int
(** Records currently held in memory. *)

val total_recorded : t -> int
val total_dropped : t -> int

val iter : t -> (seq:int -> int array -> int -> unit) -> unit
(** The in-memory records in order; the callback receives each record
    as [Record.words] ints at the given offset of an array it must not
    keep (the iterator reuses it for the next record). *)

val iter_events : t -> (Event_bus.event -> unit) -> unit
(** The parity records of {!iter}, decoded to bus events; lifecycle
    records are skipped. *)

val write_segment : out_channel -> t -> unit
(** Writes the header, retained records, the lane summary and the end
    marker, then marks the recorder finished (idempotent). *)

(** {1 Reading segments back} *)

val magic : string
(** The 8-byte segment header ["BFRC0001"] — lets tools sniff whether a
    file is a flight recording before committing to a full parse. *)

type segment

type read_lane

val read_segments : in_channel -> segment list
(** All concatenated segments until end of file.
    @raise Failure on malformed input, including a block naming a lane
    other than 0. *)

val seg_label : segment -> string

val seg_lane : segment -> read_lane option
(** The segment's lane; [None] when its recorder never made one. *)

val seg_lookup : segment -> int -> string

val read_lane_total : read_lane -> int
val read_lane_dropped : read_lane -> int
val read_lane_retained : read_lane -> int

val iter_segment : segment -> (seq:int -> int array -> int -> unit) -> unit
(** The segment's records in order, each decoded from the words as read
    into a reused array, as in {!iter}. *)
