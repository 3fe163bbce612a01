(** Wall-clock instrumentation: where does the real time go?

    A {!phases} accumulator maps phase names (e.g. ["setup"], ["run"],
    ["collect"]) to summed wall-clock durations. Phases are created on
    first use and keep first-use order; timing the same name repeatedly
    accumulates, so one accumulator can span a whole sweep. *)

val wall_clock_s : unit -> float
(** Wall-clock seconds ([Unix.gettimeofday]); only differences are
    meaningful. *)

(** {2 GC counters}

    Allocation accounting for the allocation-budget gate: bracket a run
    with {!gc_read}/{!gc_since} and divide by events fired to get
    words/event. A read runs a minor collection first — on OCaml 5,
    [Gc.quick_stat]'s minor-word counter only advances at minor-GC
    boundaries, so an unflushed reading is quantised by up to a whole
    young area. Cheap enough to call per run; never call per event. *)

type gc_counters = {
  minor_words : float;  (** words allocated in the minor heap *)
  promoted_words : float;  (** words that survived into the major heap *)
  major_collections : int;  (** major GC cycles completed *)
}

val gc_zero : gc_counters

val gc_read : unit -> gc_counters
(** Counters since program start; only differences are meaningful. *)

val gc_since : gc_counters -> gc_counters
(** [gc_since before] is the counter delta from [before] to now. *)

type phases

val phases : unit -> phases

val time : phases -> string -> (unit -> 'a) -> 'a
(** [time p name f] runs [f] and adds its wall-clock duration to [name]
    (also on exception). *)

val add_s : phases -> string -> float -> unit
(** Credit [name] with an externally measured duration. *)

val merge_into : into:phases -> phases -> unit
(** Adds each of [src]'s phase totals into [into] (creating phases as
    needed, in [src]'s order); [src] is left untouched. *)

val duration_s : phases -> string -> float
(** Accumulated seconds for [name]; 0 if never timed. *)

val durations_s : phases -> (string * float) list
(** All phases in first-use order. *)

val total_s : phases -> float
(** Sum over all phases (note: nested phases count twice). *)
