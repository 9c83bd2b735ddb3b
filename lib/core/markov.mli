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

val analyze_lts : Dpma_lts.Lts.t -> Dpma_measures.Measure.t list -> analysis

val family_ltss :
  ?max_states:int -> ?jobs:int -> Dpma_pa.Term.spec array -> Dpma_lts.Lts.t array
(** One featured build over the whole configuration family
    ({!Dpma_lts.Flts.build_family}), then one cheap projection per
    configuration — each returned LTS is bit-identical to
    [Lts.of_spec] on the corresponding spec, at a fraction of the
    derivation work when the specs share most behaviors. *)

val analyze_family :
  ?max_states:int ->
  ?jobs:int ->
  Dpma_pa.Term.spec array ->
  Dpma_measures.Measure.t list ->
  analysis array
(** {!family_ltss} followed by one {!analyze_lts} per configuration, the
    CTMC solves dealt to the domain pool. Results are positionally
    aligned with the input specs and identical to analyzing each spec
    independently. *)

val analyze_lts_lumped :
  Dpma_lts.Lts.t -> Dpma_measures.Measure.t list -> analysis
(** Quotient by ordinary lumpability (Markovian bisimilarity) before
    solving — same measure values on a possibly much smaller chain. The
    reported [states] count is the lumped one. *)

type family_solve_stats = {
  members : int;
  distinct_quotients : int;  (** distinct lumped CTMCs actually solved *)
  solves_shared : int;  (** [members - distinct_quotients] *)
}

val analyze_ltss_dedup :
  ?jobs:int ->
  Dpma_lts.Lts.t array ->
  Dpma_measures.Measure.t list ->
  analysis array * family_solve_stats
(** Quotient-deduplicated family solve over already-projected member
    LTSs. Each member is lumped by ordinary lumpability and its quotient
    CTMC canonically keyed on the numeric solve structure (state count,
    initial distribution, per-state (target, rate) lists — action names
    excluded, since the solver never reads them); each {e distinct}
    quotient's steady state is solved exactly once and fanned back out
    through per-member compiled reward vectors. Sweep members frequently
    collapse to few distinct quotients, so 1024 members cost far fewer
    than 1024 solves. Per-member values agree with {!analyze_lts} up to
    summation order (well within 1e-12 on the paper's models); [states]
    is the member's own state count, [tangible] its lumped tangible
    count. Records [family.distinct_quotients] / [family.solves_shared].
    Raises [Invalid_argument] on an empty family. *)

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
