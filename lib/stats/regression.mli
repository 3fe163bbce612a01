(** Ordinary least-squares line fitting.

    Used by [Telemetry.Burst.hurst_wavelet], whose Hurst estimate is
    the slope of the wavelet logscale diagram. *)

type fit = { slope : float; intercept : float; r2 : float }

val ols : float array -> float array -> fit
(** [ols xs ys] fits [y = slope*x + intercept].
    @raise Invalid_argument if lengths differ or fewer than 2 points. *)
