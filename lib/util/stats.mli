(** Online statistics and confidence intervals.

    Used by the simulator to aggregate replication results and by the
    validation phase of the methodology to compare estimators against
    analytic values. *)

type accumulator
(** Welford running accumulator for mean and variance. *)

val accumulator : unit -> accumulator
(** A fresh accumulator with no observations. *)

val add : accumulator -> float -> unit
(** Feed one observation into the accumulator. *)

val count : accumulator -> int
(** Number of observations added so far. *)

val mean : accumulator -> float
(** Mean of the observations added so far; [nan] when empty. *)

val variance : accumulator -> float
(** Unbiased sample variance; [0.] with fewer than two observations. *)

val stddev : accumulator -> float
(** Square root of {!variance}. *)

type summary = {
  n : int;
  mean : float;
  stddev : float;
  half_width : float;  (** half-width of the confidence interval *)
  confidence : float;  (** confidence level used, e.g. [0.90] *)
}

val summarize : ?confidence:float -> accumulator -> summary
(** Student-t confidence interval over the accumulated observations.
    [confidence] defaults to [0.90] (the level used in the paper's Fig. 5). *)

val student_t_quantile : df:int -> float -> float
(** [student_t_quantile ~df p] is the [p]-quantile of the Student-t
    distribution with [df] degrees of freedom (accurate to a few 1e-3,
    which is ample for confidence intervals). *)

val normal_quantile : float -> float
(** Quantile of the standard normal distribution
    (Acklam's rational approximation, |error| < 1.2e-8). *)

val relative_error : reference:float -> float -> float
(** [relative_error ~reference x] = |x - reference| / max(|reference|, eps). *)
