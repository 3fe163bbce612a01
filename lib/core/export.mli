(** Machine-readable experiment output.

    Every run can be exported as JSON (one self-describing document with
    the full configuration, for archival and cross-tool analysis) or CSV
    (one row per run, for spreadsheets and plotting scripts). The JSON
    document embeds the exact configuration and seed, so any exported
    result can be regenerated bit-for-bit. *)

val config_to_json : Config.t -> Json.t

val metrics_to_json : Metrics.t -> Json.t
(** Scalar fields only (traces and series are omitted). *)

val hybrid_summary_to_json : Metrics.hybrid_summary -> Json.t
(** The [hybrid] member of {!metrics_to_json}, exposed for the hybrid
    bench's own artifact. *)

val sweep_to_json : Config.t -> Figures.sweep_result -> Json.t
(** [{ "config": ..., "results": [ ... ] }]. *)

val burst_to_json : Metrics.t list -> Json.t
(** The [--burst-out] artifact: one row per run that carried a
    {!Telemetry.Burst} summary (scenario, clients, offline c.o.v. and
    the full streaming summary). Metrics arrive in input order
    regardless of [-j], so the artifact is deterministic under
    parallel sweeps. *)

val csv_header : string
(** Column names for {!metrics_to_csv_row}, comma-separated. *)

val metrics_to_csv_row : Metrics.t -> string

val sweep_to_csv : Figures.sweep_result -> string
(** Header plus one line per run. *)

val write_file : string -> string -> unit
(** [write_file path contents]. *)
