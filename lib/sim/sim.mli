(** Discrete-event simulation of general-distribution models.

    The general phase of the methodology (Sect. 5 of the paper) replaces
    exponential delays with general ones. We simulate the *same* transition
    system as the Markovian phase, viewed as a generalized semi-Markov
    process: each enabled action owns a clock drawn from its distribution;
    clocks persist across state changes while their action stays enabled
    (enabling memory) and are discarded when it is disabled. Immediate
    actions fire in zero time, resolved by priority and weight exactly as
    in the CTMC construction, so probabilistic branching (packet loss) is
    identical in both phases. *)

module Lts := Dpma_lts.Lts

type timing =
  | Timed of Dpma_dist.Dist.t
  | Immediate of { prio : int; weight : float }

val timing_of_rate : Dpma_pa.Rate.t -> timing
(** Exponential and immediate rates map directly; passive raises
    [Invalid_argument] (an unsynchronized passive action cannot fire). *)

type assignment = string -> timing option
(** Per-action timing override; actions not covered fall back to the LTS
    rate annotations. *)

val exponential_assignment : assignment -> assignment
(** The validation transform: every [Timed d] override becomes
    [Timed (Exponential (mean d))] — used to cross-check the general model
    against the Markovian one (paper's Fig. 5). *)

(** {2 Measures} *)

type estimand =
  | Time_average of (int -> float)
      (** time-averaged state reward (probability of a state set when the
          reward is its indicator) *)
  | Rate_of of (string -> float)
      (** long-run reward accrual per unit time from action firings
          (throughput of [a] when the reward is [a]'s indicator) *)
  | Ratio_of_counts of (string -> float) * (string -> float)
      (** ratio of two firing counts over the measurement window, e.g.
          lost frames over sent frames *)

exception Simulation_error of string

type run_result = { values : float array; events : int; horizon : float }

val run :
  ?timing:assignment ->
  ?trace:(time:float -> action:string -> state:int -> unit) ->
  ?warmup:float ->
  lts:Lts.t ->
  duration:float ->
  estimands:estimand list ->
  Dpma_util.Prng.t ->
  run_result
(** One replication: simulate for [warmup + duration] time units and
    return one value per estimand, measured after the warmup. Raises
    {!Simulation_error} on a passive transition without override or an
    immediate-only livelock (more than [10_000] consecutive zero-time
    steps). A deadlocked state simply lets the remaining time elapse. *)

val replicate :
  ?timing:assignment ->
  ?warmup:float ->
  ?confidence:float ->
  ?jobs:int ->
  lts:Lts.t ->
  duration:float ->
  estimands:estimand list ->
  runs:int ->
  seed:int ->
  unit ->
  Dpma_util.Stats.summary array
(** Independent replications with distinct PRNG streams; one
    {!Dpma_util.Stats.summary} (mean + confidence interval) per estimand.

    Replications run in parallel on [jobs] domains (default
    {!Dpma_util.Pool.default_jobs}). Stream [i] is always the [i]-th split
    of the seed's master generator and the per-run values are folded in
    run order, so mean and confidence interval are bit-identical for every
    job count.

    The estimands are tabulated once per call (state rewards per state,
    impulse rewards per label id) and shared read-only by the runs, so
    their functions must be pure. The ambient {!Dpma_util.Guard} is polled
    (phase ["sim.replicate"]) before each replication and every 65 536
    events; a trip carries the runs finished and the events simulated so
    far. *)

val run_segments :
  ?timing:assignment ->
  ?trace:(time:float -> action:string -> state:int -> unit) ->
  lts:Lts.t ->
  boundaries:float array ->
  estimands:estimand list ->
  Dpma_util.Prng.t ->
  float array array * int
(** Core engine: one simulation from time 0 to the last boundary, with
    an optional [trace] callback invoked after every firing (time, action
    name, entered state) — the debugging hook behind `dpma trace`; and
    measurement split at each boundary. Returns one value vector per
    segment (segment [i] covers the interval from boundary [i-1], or 0,
    to boundary [i]) plus the total event count. Boundaries must be
    positive and strictly increasing. *)

val batch_means :
  ?timing:assignment ->
  ?warmup:float ->
  ?confidence:float ->
  lts:Lts.t ->
  batches:int ->
  batch_duration:float ->
  estimands:estimand list ->
  seed:int ->
  unit ->
  Dpma_util.Stats.summary array
(** Single-long-run estimation by the method of batch means: after the
    warm-up, the run is divided into [batches] contiguous windows whose
    per-window values are treated as (approximately independent) samples.
    Cheaper than {!replicate} for systems with long transients; requires
    [batches >= 2]. Polls the ambient guard like {!replicate}, under phase
    ["sim.batch_means"]. *)

val first_passage :
  ?timing:assignment ->
  ?confidence:float ->
  ?horizon:float ->
  ?jobs:int ->
  lts:Lts.t ->
  target:(int -> bool) ->
  runs:int ->
  seed:int ->
  unit ->
  Dpma_util.Stats.summary * int
(** Simulation-based estimate of the mean first-passage time into a
    [target] state, by independent replications; runs that have not hit
    the target by [horizon] (default [1e7]) are censored and reported in
    the returned count (they contribute the horizon as a lower bound, so
    a non-zero censored count means the true mean is underestimated).
    Replications run on [jobs] domains with the same per-run streams as
    {!replicate}, so the estimate is independent of the job count; the
    guard is polled as in {!replicate}, and [sim.events] counts each run's
    events up to the hit. *)
