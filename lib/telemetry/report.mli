(** The end-of-run JSON report and the gate documents of the bench.

    The run report is the machine-readable contract behind
    [--telemetry]: {!required_fields} lists the keys every report
    carries, and {!validate} checks a parsed document against that
    contract. Every BENCH_*.json file carries a [gates] list instead,
    checked by {!validate_gates}. Both are used by the [report-check]
    subcommand and [make check]. *)

type t = {
  label : string;
  runs : int;
  events_fired : int;
  event_queue_hwm : int;
  gateway_queue_hwm : int;
  sim_time_s : float;
  run_wall_s : float;  (** wall seconds inside the run phase only *)
  wall_s : float;  (** total wall seconds (all phases) *)
  events_per_sec : float;
  sim_wall_ratio : float;
  words_per_event : float;
      (** minor-heap words allocated per scheduler event, 0 when GC
          counters were not recorded *)
  bus_events : int;
  phases : (string * float) list;
  metrics : Json.t;  (** [Registry.to_json] dump *)
}

val of_probe : ?label:string -> Probe.t -> t
(** Rates are derived from the run phase: [events_per_sec] and
    [sim_wall_ratio] are 0 when no run time was recorded. [wall_s] is
    the "total" phase when one was timed, otherwise the sum of phases. *)

val to_json : t -> Json.t

val required_fields : string list

val validate : Json.t -> (unit, string) result
(** Check that a parsed report is an object carrying every required
    field, with [phases] an object and [metrics] a list. *)

(** {1 Gates} *)

type op = Le | Ge | Eq  (** measured [<=], [>=] or [=] the bound *)

type spread = { reps : int; q1 : float; median : float; q3 : float }
(** Quartiles of a timed measurement over its reps. *)

type gate = {
  name : string;  (** unique within a document *)
  measured : float option;  (** [None] when the gate was not run *)
  op : op;
  bound : float;
  spread : spread option;  (** timed gates: [measured] is the median *)
  skip : string option;  (** why a gate with no measurement was not run *)
}
(** One committed claim. A band is a [Ge] gate plus an [Le] gate; a
    boolean is [Eq] 1. *)

val op_label : op -> string
(** ["le"], ["ge"] or ["eq"], as written in the JSON. *)

type verdict = Pass | Skipped of string | Fail of string

val verdict : gate -> verdict
(** [Skipped] when [measured] is [None] with a non-empty [skip] reason;
    [Fail] when [measured] is [None] without one. A gate with a
    [spread] must have [measured] equal to its median, and is judged
    on the quartile nearest its bound: an [Le] gate fails only when
    [q1 > bound], a [Ge] gate only when [q3 < bound]. Any other gate
    compares [measured] with [bound]. *)

val gate_to_json : gate -> Json.t
(** [{name, measured, op, bound, spread?, skip?}] with [op] one of
    ["le"], ["ge"], ["eq"]. A non-finite [measured] is written as null. *)

val validate_gates : Json.t -> (unit, string) result
(** Check a document's [gates] list: it must be non-empty, every gate
    must parse, names must be unique, and no gate's {!verdict} may be
    [Fail]. Errors name the gate. *)
