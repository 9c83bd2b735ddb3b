(** Continuous-time Markov chains extracted from Markovian LTSs.

    Construction eliminates *vanishing* states (those enabling immediate
    actions, which preempt timed ones): the maximal-priority immediate
    alternatives are resolved probabilistically by weight and folded into
    the incoming timed transitions. Cycles of immediate transitions (time
    traps) and leftover passive actions (unsynchronized halves of an
    attachment) are rejected — both indicate a modelling error.

    A chain is packed in compressed sparse row form like {!Dpma_lts.Lts.t}:
    the timed transitions of tangible state [s] occupy the index range
    [row.(s) .. row.(s+1) - 1] of [dst], [rate] and [lab] (interned label
    ids, {!Dpma_pa.Label.t}). Within a state, transitions keep the order
    of construction: the LTS edges in reverse order, each fanned out over
    its target's tangible distribution in increasing state order. *)

type t = private {
  n : int;  (** number of tangible states *)
  init_state : int array;
  init_prob : float array;
      (** initial probability distribution, as parallel arrays (a
          singleton unless the initial state was vanishing) *)
  row : int array;  (** length [n + 1] *)
  dst : int array;  (** transition targets *)
  rate : float array;  (** exponential rates *)
  lab : int array;
      (** label ids; self-loops are kept — they do not affect the
          stationary distribution but do carry impulse rewards (the
          paper's monitor actions) *)
  imm_row : int array;
  imm_lab : int array;
  imm_rate : float array;
      (** CSR (same state indexing) of the expected firing rate of each
          *immediate* label reached through the state's timed transitions
          (the firings of the vanishing chains folded away during
          construction), sorted by label name, so throughputs also cover
          immediate actions *)
  enabled_row : int array;
  enabled_lab : int array;
      (** CSR of the observable label ids enabled in the original LTS
          state, sorted by id — the [ENABLED] predicates of the measure
          language *)
  exit_rate : float array;
      (** total rate of the non-self-loop transitions of each state *)
}

exception Build_error of string

val of_lts : Dpma_lts.Lts.t -> t
(** [fill (plan lts) lts]. Raises {!Build_error} on passive transitions,
    immediate cycles, or absent rate annotations (i.e. a functional
    LTS). *)

(** {2 Plans}

    The build in two steps, so that LTSs differing only in their timed
    (exponential) rates share one vanishing-state elimination. *)

type plan
(** Everything of [of_lts lts] that no timed rate feeds: state
    classification and tangible numbering, the resolution of each
    vanishing state into tangible probabilities and expected immediate
    firings (branch probabilities come from immediate weights), and
    the [dst], [lab], [imm_lab], [enabled_*], [row]s and [init_*]
    columns. *)

val plan : Dpma_lts.Lts.t -> plan
(** Raises {!Build_error} as {!of_lts} does, on the same inputs. *)

val fill : plan -> Dpma_lts.Lts.t -> t
(** [fill p lts] is the chain of [lts], for an [lts] with the plan [p]
    ({!same_plan} as the LTS [p] was made from): it walks [lts]'s timed
    edges in the build's order and forms [rate], [exit_rate] and
    [imm_rate] from their rates and [p]'s resolution, with the build's
    products and sums in the build's order, so [fill p lts] is
    {!of_lts}[ lts] bit for bit. The other columns are [p]'s own arrays,
    shared by every chain it fills. *)

val plan_hash : Dpma_lts.Lts.t -> int
(** A hash of what {!plan} reads: [init], [row], [lab], [tgt],
    [rate_kind], [rate_prio] and the bits of every non-timed rate. *)

val same_plan : Dpma_lts.Lts.t -> Dpma_lts.Lts.t -> bool
(** Equality of the fields {!plan_hash} reads,
    [Lts.equal_fields ~columns:true ~rates:`Untimed]: two LTSs for
    which it holds have one plan. *)

val rates_hash : Dpma_lts.Lts.t -> int
(** A hash of the bits of the timed rates, the only part of an LTS
    that {!fill} reads. *)

val same_rates : Dpma_lts.Lts.t -> Dpma_lts.Lts.t -> bool
(** Bit equality of the timed rates of two LTSs with the same plan,
    [Lts.equal_fields ~columns:false ~rates:`Timed]: with {!same_plan}
    it is {!Dpma_lts.Lts.equal}, as the two select every rate. *)

val uniformization_rate : t -> float

val enables_action : t -> int -> string -> bool
(** Does the state enable the observable action of this name (binary
    search over its label id)? *)

(** {2 Stationary analysis} *)

type graph
(** The value-independent part of a steady-state solve: the components
    of the graph of positive-rate transitions, the states reachable from
    the initial distribution and the reachable bottom components. *)

val graph : plan -> Dpma_lts.Lts.t -> graph
(** [graph p lts] is the graph {!steady_state} builds for
    [fill p lts]; it serves every chain of [p] whose positive rates sit
    in the same cells. *)

val steady_state : ?graph:graph -> t -> float array
(** Stationary distribution reached from the initial distribution.
    [?graph] skips the graph work when it was made from the plan that
    filled the chain and the chain's positive rates sit where the
    graph's do; otherwise (a rate that underflowed to [0.], say) the
    chain's own graph is built. Either way the result is the same bit
    for bit.
    Only the states reachable from the initial distribution take part.
    Their BSCCs (Tarjan) are weighted by absorption probabilities,
    computed component by component in reverse topological order
    (singleton components directly, nontrivial ones of up to
    {!dense_threshold} states by one subtraction-free elimination,
    larger ones by local sweeps to a 1e-14 change). Inside each BSCC the
    balance equations are solved densely (Gaussian elimination) up to
    {!dense_threshold} states and by Gauss–Seidel (to a 1e-12 L1 change)
    above. Polls the ambient
    {!Dpma_util.Guard} (phase ["ctmc.solve"]) before every sweep; a loop
    that hits its cap raises [Dpma_util.Guard.Resource_exceeded] with a
    convergence trip of the same phase (["ctmc.passage"] for the
    first-passage and reward fixed points), counted in
    [ctmc.solve.unconverged]. *)

val dense_threshold : int

val transient : t -> float -> float array
(** [transient c time] — state distribution at [time], by uniformization
    with adaptive Poisson truncation. *)

(** {2 Rewards} *)

val state_reward : t -> float array -> (int -> float) -> float
(** Expected steady-state reward [sum_s pi(s) r(s)]. *)

val throughput : t -> float array -> string -> float
(** Firing rate of the given action in steady state: timed transitions
    plus folded immediate firings. *)

val probability_enabled : t -> float array -> string -> float
(** Steady-state probability of being in a state enabling the action —
    the paper's monitor-based [STATE_REWARD(1)] measures. *)

val transient_reward : t -> float -> (int -> float) -> float
(** [transient_reward c time r] — expected instantaneous state reward at
    [time], i.e. [sum_s P(state = s at time) r(s)]. *)

(** {2 First passage}

    The three fixed points below sweep by Gauss–Seidel to a change below
    1e-14 (reachability) or 1e-13 (times and rewards), at most 10^6
    sweeps, polling the ambient guard with phase ["ctmc.passage"]. *)

val mean_time_to : t -> target:(int -> bool) -> float
(** Expected time to first reach a [target] state from the initial
    distribution (first passage time): solves
    [h(s) = 1/E(s) + sum_u p(s,u) h(u)] on non-target states. Returns
    [infinity] when some state reachable from the initial distribution
    cannot reach the target, [0.] when the initial distribution is already
    inside the target. *)

val reachability_probability : t -> target:(int -> bool) -> float
(** Probability of ever reaching a [target] state from the initial
    distribution. *)

val expected_accumulated_reward :
  t -> reward:(int -> float) -> until:(int -> bool) -> float
(** Expected state reward accumulated from the initial distribution until
    the first visit to an [until] state: solves
    [g(s) = r(s)/E(s) + sum_u p(s,u) g(u)] on non-target states.
    With [reward = power draw] and [until = battery empty] this is the
    expected energy delivered over the device's life; with [reward = 1]
    it coincides with {!mean_time_to}. Returns [infinity] under the same
    conditions as {!mean_time_to}. *)
