(** Probability distributions for activity durations.

    The Markovian phase of the methodology only uses {!Exponential};
    the general phase (Sect. 5 of the paper) replaces selected delays by
    {!Deterministic} and {!Normal} ones, and this module supplies a few more
    families useful for sensitivity studies. All delays are durations, so
    samples are guaranteed non-negative (the normal is truncated at 0 by
    resampling, matching how measurement noise is applied to propagation
    delays in the paper's general rpc model). *)

type t =
  | Exponential of float  (** mean *)
  | Deterministic of float  (** the constant itself *)
  | Uniform of float * float  (** inclusive lower bound, exclusive upper *)
  | Normal of float * float  (** mean, standard deviation; truncated at 0 *)
  | Erlang of int * float  (** number of stages, total mean *)
  | Weibull of float * float  (** shape k, scale lambda *)

val mean : t -> float
val variance : t -> float

val sample : Dpma_util.Prng.t -> t -> float
(** Draw one non-negative sample. *)

val sample_into : Dpma_util.Prng.t -> t -> float array -> int -> unit
(** [sample_into g d out i] draws the sample {!sample} would and stores it
    in [out.(i)], so the sample is never boxed; the simulator writes its
    clocks with it. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

val of_args : string -> float list -> (t, string) result
(** [of_args name args] is the distribution [name(args)] of the ADL's
    concrete syntax, or the argument rule it breaks. Every argument must
    be finite, and: [exp(m)] needs [m > 0]; [det(c)] [c >= 0];
    [unif(a,b)] [0 <= a <= b]; [norm(m,sd)] [m >= 0] and [sd >= 0];
    [erlang(k,m)] an integer [k >= 1] and [m > 0]; [weibull(k,l)] [k > 0]
    and [l > 0]. The ADL parser and {!of_string} both validate through
    it. *)

val of_string : string -> (t, string) result
(** Parse the concrete syntax used by the ADL:
    [exp(m)], [det(c)], [unif(a,b)], [norm(m,sd)], [erlang(k,m)],
    [weibull(k,l)], with the argument rules of {!of_args}. *)

val equal : t -> t -> bool
