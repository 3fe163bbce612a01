(** Minimal self-contained JSON, for exporting experiment results.

    An alias of {!Telemetry.Json}, where the implementation lives so the
    telemetry library can serialise without depending on burstcore; the
    type equality makes values interchangeable between the two. *)

include module type of struct
  include Telemetry.Json
end
