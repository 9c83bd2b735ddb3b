(** The reward-based measure companion language.

    Mirrors the specification language used in the paper (Sect. 4.1):

    {v
    MEASURE throughput IS
      ENABLED(C.process_result_packet) -> TRANS_REWARD(1);
    MEASURE energy IS
      ENABLED(S.monitor_idle_server)    -> STATE_REWARD(2)
      ENABLED(S.monitor_busy_server)    -> STATE_REWARD(3)
      ENABLED(S.monitor_awaking_server) -> STATE_REWARD(2)
    v}

    A [STATE_REWARD(r)] clause accrues reward [r] per time unit while the
    system is in a state enabling the named action (the paper's monitor
    self-loops make specific local states identifiable this way); a
    [TRANS_REWARD(r)] clause yields [r] at each firing of the action.
    An optional [DIVIDED_BY] clause list turns the measure into a
    quotient, e.g. the paper's energy-per-request:

    {v
    MEASURE energy_per_request IS
      ENABLED(S.monitor_idle_server) -> STATE_REWARD(2)
      ENABLED(S.monitor_busy_server) -> STATE_REWARD(3)
      ENABLED(S.monitor_awaking_server) -> STATE_REWARD(2)
      DIVIDED_BY
      ENABLED(C.process_result_packet) -> TRANS_REWARD(1);
    v}

    Measures evaluate against a CTMC solution or against the simulator
    (quotients of simulated means carry first-order-propagated intervals). *)

type reward_kind = State_reward | Trans_reward

type clause = { action : string; kind : reward_kind; reward : float }

type t = {
  name : string;
  clauses : clause list;
  divisor : clause list;
      (** non-empty for quotient measures ([DIVIDED_BY]): the measure's
          value is the numerator clauses' value over the divisor clauses'
          value — the paper's derived metrics (energy per request, energy
          per frame) expressed inside the language *)
}

val measure : string -> clause list -> t
val quotient_measure : string -> clause list -> clause list -> t
val state_clause : string -> float -> clause
val trans_clause : string -> float -> clause

(** {2 Concrete syntax} *)

exception Parse_error of string

val parse : string -> t list
(** Parse a sequence of MEASURE declarations. Raises {!Parse_error}. *)

val parse_result : string -> (t list, string) result

val pp : Format.formatter -> t -> unit

(** {2 Evaluation} *)

val eval_ctmc : Dpma_ctmc.Ctmc.t -> float array -> t -> float
(** Steady-state value: state clauses weigh the stationary probability of
    enabling states; transition clauses weigh action throughputs. *)

type compiled
(** Measures compiled for the simulator: a list of {!Dpma_sim.Sim.estimand}
    plus the layout mapping estimands back to measures (a measure mixing
    state and transition clauses compiles to two estimands whose summaries
    are summed). Equal clause lists share one estimand, across measures
    and across the two sides of a quotient. *)

val compile_sim : Dpma_lts.Lts.t -> t list -> compiled

val estimands : compiled -> Dpma_sim.Sim.estimand list

val values :
  compiled ->
  Dpma_util.Stats.summary array ->
  (string * Dpma_util.Stats.summary) list
(** Per-measure summaries; when a measure compiled to two estimands the
    means add and the half-widths add (conservative interval). *)
