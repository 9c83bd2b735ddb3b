(** General-distribution comparison (third phase of the methodology).

    The general model replaces exponential delays by general ones (given as
    per-action distribution overrides) and is *simulated*. Before trusting
    its estimates, it is validated against the Markovian model: re-running
    the simulator with every override replaced by the exponential of the
    same mean must reproduce the CTMC values (paper's Fig. 5). *)

type sim_params = {
  runs : int;
  duration : float;
  warmup : float;
  confidence : float;
  seed : int;
  jobs : int option;
      (** domains used for the replications; [None] defers to
          {!Dpma_util.Pool.default_jobs}. The estimates are identical for
          every job count. *)
}

val default_sim_params : sim_params
(** 30 runs (as in the paper's Fig. 5), 90% confidence. *)

type estimate = {
  measure : string;
  summary : Dpma_util.Stats.summary;
}

val simulate :
  Dpma_lts.Lts.t ->
  timing:Dpma_sim.Sim.assignment ->
  measures:Dpma_measures.Measure.t list ->
  sim_params ->
  estimate list

val timing_of_list : (string * Dpma_dist.Dist.t) list -> Dpma_sim.Sim.assignment
(** Assignment from the elaborated [general_timings] list. *)

type validation_line = {
  name : string;
  markovian : float;
  simulated : Dpma_util.Stats.summary;
  relative_error : float;
  within_interval : bool;
}

type validation = { lines : validation_line list; consistent : bool }

val validate :
  ?tolerance:float ->
  ?markovian:Markov.analysis ->
  Dpma_lts.Lts.t ->
  timing:Dpma_sim.Sim.assignment ->
  measures:Dpma_measures.Measure.t list ->
  sim_params ->
  validation
(** Cross-validation: simulate with exponentialized overrides and compare
    each measure against the CTMC solution. A line is consistent when the
    Markovian value falls within the confidence interval stretched by
    [tolerance] (default 0.15) relative slack. [markovian] is that
    solution, [Markov.analyze_lts lts measures], when the caller already
    has it; without it the chain is solved here. *)

val pp_validation : Format.formatter -> validation -> unit
