(** Batch-means output analysis for steady-state simulations.

    A single simulation run produces one autocorrelated series of per-bin
    observations; naive confidence intervals on it are wrong. The batch
    means method splits the series into ten contiguous batches,
    computes the statistic within each, and treats the batch values as
    approximately independent — the standard method for interval
    estimation from one long DES run (Law & Kelton ch. 9). *)

type interval = {
  point : float;  (** statistic over the whole series *)
  mean_of_batches : float;
  std_error : float;  (** of the batch means *)
  half_width_95 : float;  (** Student-t 95 % half width *)
  batches : int;
}

val analyze : f:(float array -> float) -> float array -> interval
(** [analyze ~f xs] over ten contiguous batches.
    @raise Invalid_argument if there are fewer than 2 observations per
    batch. *)

val cov_interval : float array -> interval
(** Batch-means interval for the coefficient of variation — the paper's
    burstiness statistic with honest error bars from one run. *)

val t_quantile_975 : df:int -> float
(** Two-sided 95 % Student-t quantile, exact to three decimals for
    df <= 30, asymptotic 1.96 beyond. *)
