(** Minimal self-contained JSON, for exporting experiment results.

    Encoder and parser for the JSON subset the exporter emits (all of
    RFC 8259 except surrogate-pair escapes). Round-trip property:
    [parse (to_string v) = Ok v] for every value built from these
    constructors with finite floats. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact rendering: no whitespace, object fields in list order.

    A float prints as ["%.12g"] when that reads back as the same float,
    else as ["%.17g"], with [".0"] appended when neither a ['.'] nor an
    exponent shows (so [1.0] prints ["1.0"], [0.1] ["0.1"], [1e-07]
    ["1e-07"]). Strings escape ['"'], ['\\'], newline, carriage return
    and tab by name and every other byte below 0x20 as [\u00XX]; all
    other bytes pass through. @raise Invalid_argument on a non-finite
    float. *)

(** {2 Number writers}

    The number renderers underneath {!to_string}, for an encoder that
    writes a fixed shape into line bytes of its own: each writes at a
    position the bytes {!to_string} gives for [Int]/[Float], and returns
    the position after. The caller guarantees {!number_bytes} free bytes
    from there. *)

val number_bytes : int
(** The most bytes one number takes (40). *)

val put_int : Bytes.t -> int -> int -> int
(** [put_int b pos n] writes [n] in decimal, with a ['-'] when
    negative. *)

val put_float : Bytes.t -> int -> float -> int
(** [put_float b pos f] writes [f] under the number contract of
    {!to_string}. @raise Invalid_argument on a non-finite float. *)

val line_writer : out_channel -> t -> unit
(** [line_writer oc] is a writer that appends [to_string v ^ "\n"] to
    [oc] for each [v], rendered in one buffer the writer owns and reuses.
    The caller owns (and flushes/closes) the channel. *)

val pp : Format.formatter -> t -> unit
(** Indented rendering. *)

val parse : string -> (t, string) result
(** Parses a complete JSON document (numbers with a '.', 'e' or 'E'
    become [Float], others [Int]). The error string includes the
    position. *)

val member : string -> t -> t option
(** Field lookup in an [Obj]; [None] otherwise. *)

val to_float : t -> float option
(** Numeric accessor ([Int] widens). *)
