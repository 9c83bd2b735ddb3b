(** Markovian comparison (second phase of the methodology).

    The Markovian model is obtained from the functional one by attaching
    exponential rates to its actions (our models carry rates from the
    start, so both phases share one specification). This module solves the
    underlying CTMC and evaluates reward-based measures, with and without
    the DPM — "without" meaning the DPM commands are prevented from
    occurring, exactly as in the noninterference check, so no second model
    has to be written. *)

type analysis = {
  states : int;
  tangible : int;
  values : (string * float) list;  (** measure name -> steady-state value *)
}

val analyze :
  ?max_states:int ->
  Dpma_pa.Term.spec ->
  Dpma_measures.Measure.t list ->
  analysis

val build_ctmc : Dpma_lts.Lts.t -> Dpma_ctmc.Ctmc.t
(** [Ctmc.of_lts] under a [ctmc.build] span: the chain {!analyze_lts}
    solves, for callers that solve it themselves ([dpma transient],
    [dpma firstpassage]). *)

val analyze_lts : Dpma_lts.Lts.t -> Dpma_measures.Measure.t list -> analysis
(** Builds the CTMC, solves its steady state and evaluates [measures],
    under a [markov.analyze] span with [ctmc.build], [ctmc.solve] and
    [markov.evaluate] children ({!Dpma_ctmc.Ctmc} opens no span
    itself). *)

val analyze_lts_lumped :
  Dpma_lts.Lts.t -> Dpma_measures.Measure.t list -> analysis
(** Quotient by ordinary lumpability (Markovian bisimilarity) before
    solving — same measure values on a possibly much smaller chain. The
    reported [states] count is the lumped one. *)

type family_solve_stats = {
  members : int;
  structures : int;
      (** distinct CTMC plans ({!Dpma_ctmc.Ctmc.same_plan}) among the
          members *)
  distinct_quotients : int;  (** distinct member LTSs solved *)
  solves_shared : int;  (** [members - distinct_quotients] *)
}

val analyze_ltss_dedup :
  ?jobs:int ->
  Dpma_lts.Lts.t array ->
  Dpma_measures.Measure.t list ->
  analysis array * family_solve_stats
(** {!analyze_lts} on every member, once per distinct member LTS. The
    members are keyed in two levels, each member hashed once: by their
    CTMC plan ({!Dpma_ctmc.Ctmc.same_plan}: the CSR, label ids and
    immediate weights), then by the bits of their timed rates
    ({!Dpma_ctmc.Ctmc.same_rates}), which together are
    {!Dpma_lts.Lts.equal}. Each plan is built once, with its
    steady-state graph ({!Dpma_ctmc.Ctmc.graph}), in first-appearance
    order on the calling domain; each distinct LTS's chain is filled
    from it, solved and evaluated exactly once, and every member gets
    its representative's [analysis]. Sweep members frequently project
    to one LTS, and differ mostly in rates, so 1024 members cost far
    fewer than 1024 solves and a handful of plans. Every member's
    [analysis] is bit-identical to {!analyze_lts} on it, and a member
    whose chain fails to build raises what {!analyze_lts} raises on
    the first such member. The distinct fills and solves are dealt to
    [jobs] domains (by default {!Dpma_util.Pool.default_jobs}, lowered
    so that each gets at least 8192 transitions to solve); the results
    do not depend on [jobs]. Records [family.distinct_quotients] /
    [family.solves_shared]. Traced as a [markov.dedup] span whose
    children are [markov.dedup.key] (keying the member LTSs; its
    [structures] attribute counts the plans) and [markov.dedup.solve]
    (the plans, then the distinct fills, solves and evaluations), one
    span per phase and none per member. Raises [Invalid_argument] on
    an empty family. *)

type family = {
  union_states : int;  (** states of the featured union *)
  union_transitions : int;  (** guarded transitions of the union *)
  stats : Dpma_lts.Flts.family_stats;
  members : Dpma_lts.Lts.t array;
      (** each member's LTS, in spec order, bit-identical to
          [Lts.of_spec] on its spec *)
  solved : (analysis array * family_solve_stats) option;
      (** with [measures]: {!analyze_ltss_dedup} on [members] *)
  build_seconds : float;  (** wall-clock seconds of each phase *)
  project_seconds : float;
  analyze_seconds : float;  (** [0.] without [measures] *)
}

val family :
  ?max_states:int ->
  ?jobs:int ->
  ?measures:Dpma_measures.Measure.t list ->
  Dpma_pa.Term.spec array ->
  family
(** The family path: one featured build over the whole configuration
    family ({!Dpma_lts.Flts.build_family}, span [family.build]), one
    projection per member ({!Dpma_lts.Flts.project_all}, span
    [family.project]) and, with [measures], the deduplicated solves
    ({!analyze_ltss_dedup}, span [markov.dedup]). Each member's LTS,
    and each analysis, is bit-identical to the per-spec pipeline
    ({!analyze} on that spec) at a fraction of the derivation work when
    the specs share most behaviors. [jobs] goes to the build and to the
    solves; the projection always runs at [project_all]'s default of
    one job. Nothing returned depends on [jobs] but clock readings and
    the build's own [jobs] figure. The
    union itself is dropped before the solves. Raises what its phases
    raise ([Invalid_argument] on an empty family,
    {!Dpma_lts.Lts.Too_many_states} past [max_states] union states). *)

val without_dpm : Dpma_lts.Lts.t -> high:string list -> Dpma_lts.Lts.t
(** Restrict the DPM command actions. *)

val compare_dpm :
  ?max_states:int ->
  Dpma_pa.Term.spec ->
  high:string list ->
  Dpma_measures.Measure.t list ->
  analysis * analysis
(** (with DPM, without DPM). *)

val value : analysis -> string -> float
(** Raises [Not_found] for an unknown measure name. *)
