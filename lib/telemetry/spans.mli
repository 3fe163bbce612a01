(** Lifecycle spans derived from a flight-recorder stream, accumulated
    into log-scale histograms in a metric registry:

    - [trace_packet_sojourn_seconds] — enqueue-to-depart time through a
      recorded link, keyed by (link, packet uid); drops cancel the
      pending span;
    - [trace_rtt_seconds] — sender RTT samples ([tcp_rtt] records);
    - [trace_phase_seconds{phase=...}] — time spent in each TCP
      congestion phase, from [tcp_phase] transition records; spans
      still open at the end of the stream close at the [run_end]
      marker (or the last tick seen).

    Tick counters restart per segment, so accumulate one segment (or
    one live recorder) at a time; histograms merge across calls since
    they share a registry.

    Pending packets are keyed per link by their uid alone, so a packet
    record builds no tuple and makes no call into the runtime's generic
    hash or compare. *)

type t
(** One stream's accumulator, fed record by record — for a pass over
    the records that does other work too (see {!Probe.replay}). *)

val create : Registry.t -> t
(** Registers the span histograms (if absent) and starts an empty
    stream. *)

val add : t -> int array -> int -> unit
(** [add t buf off] folds the record at [buf.(off..)]. *)

val close : t -> unit
(** Ends the stream: closes the phase spans still open. *)

val of_recorder : registry:Registry.t -> Recorder.t -> unit
(** Spans from a live recorder's retained records. *)

val of_segment : registry:Registry.t -> Recorder.segment -> unit
(** Spans from a decoded segment. *)

val histograms : Registry.t -> (string * Registry.histogram) list
(** The span histograms (registering them if absent), as
    [(short name, cell)] pairs — for summary printers. *)
