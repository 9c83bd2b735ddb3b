(** Continuous-time Markov chains extracted from Markovian LTSs.

    Construction eliminates *vanishing* states (those enabling immediate
    actions, which preempt timed ones): the maximal-priority immediate
    alternatives are resolved probabilistically by weight and folded into
    the incoming timed transitions. Cycles of immediate transitions (time
    traps) and leftover passive actions (unsynchronized halves of an
    attachment) are rejected — both indicate a modelling error. *)

type t = {
  n : int;  (** number of tangible states *)
  initial : (int * float) list;
      (** initial probability distribution (singleton unless the initial
          state was vanishing) *)
  transitions : (int * float * string) list array;
      (** per state: (target, exponential rate, action name); self-loops
          are kept — they do not affect the stationary distribution but do
          carry impulse rewards (the paper's monitor actions) *)
  immediate_rates : (string * float) list array;
      (** per state: expected firing rate of each *immediate* action
          reached through this state's timed transitions (the firings of
          the vanishing chains folded away during construction), so
          impulse rewards and throughputs also cover immediate actions *)
  enabled_actions : string list array;
      (** observable actions enabled in the original LTS state, used by the
          [ENABLED] predicates of the measure language *)
}

exception Build_error of string

val of_lts : Dpma_lts.Lts.t -> t
(** Raises {!Build_error} on passive transitions, immediate cycles, or
    absent rate annotations (i.e. a functional LTS). *)

val total_exit_rate : t -> int -> float

val uniformization_rate : t -> float

(** {2 Stationary analysis} *)

val steady_state : t -> float array
(** Stationary distribution reached from the initial distribution.
    Handles chains with a transient prefix by Tarjan BSCC analysis and
    absorption-probability weighting; inside each BSCC the balance
    equations are solved densely (Gaussian elimination) below
    {!dense_threshold} states and by Gauss–Seidel above. *)

val dense_threshold : int

val bsccs : t -> int list list

val transient : t -> float -> float array
(** [transient c time] — state distribution at [time], by uniformization
    with adaptive Poisson truncation. *)

(** {2 Rewards} *)

val state_reward : t -> float array -> (int -> float) -> float
(** Expected steady-state reward [sum_s pi(s) r(s)]. *)

val impulse_reward : t -> float array -> (string -> float) -> float
(** Expected reward accrual rate from transition firings:
    [sum_s pi(s) sum_(s,lambda,a) lambda r(a)]. *)

val throughput : t -> float array -> string -> float
(** Firing rate of the given action in steady state. *)

val probability_enabled : t -> float array -> string -> float
(** Steady-state probability of being in a state enabling the action —
    the paper's monitor-based [STATE_REWARD(1)] measures. *)

val pp_stats : Format.formatter -> t -> unit

val transient_reward : t -> float -> (int -> float) -> float
(** [transient_reward c time r] — expected instantaneous state reward at
    [time], i.e. [sum_s P(state = s at time) r(s)]. *)

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
