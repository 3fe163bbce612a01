(** Plain-text rendering of experiment results: aligned tables and ASCII
    line charts, so every paper figure has a terminal representation. *)

val table : Format.formatter -> header:string list -> rows:string list list -> unit
(** Columns are sized to the widest cell; header is underlined. *)

val plot :
  Format.formatter ->
  ?height:int ->
  x_min:float ->
  x_max:float ->
  series:(char * string * float array) list ->
  unit ->
  unit
(** Multi-series ASCII chart. Each series is (glyph, label, samples);
    samples are assumed evenly spaced over [\[x_min, x_max\]] and are
    resampled to 72 columns. The y-range is shared. Later series
    overwrite earlier ones where they collide. *)

val fmt_float : float -> string
(** Compact float formatting for table cells. *)
