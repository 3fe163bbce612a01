(** The simulation event bus: one typed publish/subscribe channel.

    Any number of subscribers (NDJSON sinks, ad-hoc analysis closures)
    observe typed events in subscription order. No simulation code
    publishes here: the flight recorder is the only event hook, and
    {!Probe} replays each run's recorded parity records onto the bus
    after the run, so the simulation hot path never pays for it.

    Every event serialises to one JSON object (NDJSON when
    newline-separated) and parses back exactly: for any event [e],
    [of_ndjson_line (to_ndjson e) = Ok e]. *)

type packet_kind = Arrival | Drop | Depart

type tcp_kind = Timeout | Fast_retransmit | Cwnd_cut | Ecn_reaction

type queue_kind = Ecn_mark | Early_drop | Forced_drop

type event =
  | Packet of {
      time : float;
      kind : packet_kind;
      link : string;
      flow : int;
      seq : int option;  (** [None] for ACKs *)
      size_bytes : int;
      uid : int;
    }  (** A link-level packet event (queue arrival, drop, delivery). *)
  | Tcp of { time : float; kind : tcp_kind; flow : int; cwnd : float }
      (** A congestion-control decision; [cwnd] is the window {e after}
          the reaction, in segments. *)
  | Queue of {
      time : float;
      kind : queue_kind;
      queue : string;
      flow : int;
      avg : float;
          (** the discipline's queue estimate at the decision: RED's
              average, the instantaneous occupancy for drop-tail and SFQ *)
    }  (** A gateway queue-discipline decision (RED's early or forced
          drop or CE mark, a drop-tail or SFQ forced drop) that plain
          link drop counts cannot attribute. *)
  | Custom of { time : float; name : string; value : float }
      (** Escape hatch for experiment-specific instrumentation. *)

val time : event -> float

type t

type subscription

val create : unit -> t

val subscribe : t -> (event -> unit) -> subscription
(** Subscribers are invoked in subscription order on every publish. *)

val unsubscribe : t -> subscription -> unit
(** A no-op if already unsubscribed. *)

val has_subscribers : t -> bool

val publish : t -> event -> unit

val published : t -> int
(** Total events published so far (whether or not anyone listened). *)

(** {2 NDJSON serialisation} *)

val to_json : event -> Json.t

val of_json : Json.t -> (event, string) result

val to_ndjson : event -> string
(** One-line JSON, no trailing newline: the bytes of [Json.to_string
    (to_json e)], rendered field by field with no tree, by the renderer
    {!ndjson_writer} uses. *)

val of_ndjson_line : string -> (event, string) result

val ndjson_writer : out_channel -> event -> unit
(** [ndjson_writer oc] is a ready-made subscriber that appends
    [to_ndjson e ^ "\n"] to [oc] per event. Each line is written
    straight from the event into one line of bytes the writer owns —
    constant key prefixes, {!Json.put_int}/{!Json.put_float} for the
    numbers, and each name escaped once while it repeats — and reaches
    [oc] in one [output]. Writers share no state. The caller owns (and
    flushes/closes) the channel. *)
