(** Noninterference analysis (first phase of the methodology).

    Following Sect. 3 of the paper, the DPM is *transparent* when the
    functional model with the high actions (the DPM commands) made
    unobservable is weakly bisimilar to the functional model with the high
    actions prevented from occurring — i.e. the low observer (the client)
    cannot tell whether a power manager is present. Every action that is
    neither high nor low is internal and hidden on both sides.

    On failure, a distinguishing modal-logic formula is returned as the
    diagnostic that guides the revision of the DPM or of the system. *)

type verdict =
  | Secure
  | Insecure of Dpma_lts.Hml.t
      (** formula satisfied by the hidden-DPM system and not by the
          DPM-less system, over weak modalities *)

val check_lts :
  ?jobs:int ->
  Dpma_lts.Lts.t ->
  high:(string -> bool) ->
  low:(string -> bool) ->
  verdict
(** [jobs] is handed to the product refiner's parallel signature pass
    (default {!Dpma_util.Pool.default_jobs}); verdicts and formulas are
    identical for any job count. The weak check runs on the lazy
    tau-closure pass; the saturated LTS is never materialized (see
    docs/WEAK_EQUIVALENCE.md). *)

val check_spec :
  ?max_states:int ->
  ?jobs:int ->
  Dpma_pa.Term.spec ->
  high:string list ->
  low:string list ->
  verdict
(** Builds the LTS first ([jobs] parallelizes the build and the check);
    high/low given as exact action names (the fused channel names for
    attached interactions). *)

val observed_pair :
  Dpma_lts.Lts.t ->
  high:(string -> bool) ->
  low:(string -> bool) ->
  Dpma_lts.Lts.t * Dpma_lts.Lts.t
(** The two compared systems: (DPM hidden, DPM removed), both with
    non-low actions hidden — exposed for inspection and testing. *)

val mem_of : string list -> string -> bool
(** [mem_of actions] classifies an action name by membership in
    [actions], through a set built once — the classifier to hand to the
    checks, which query it once per transition. *)

val front :
  ?jobs:int ->
  Dpma_lts.Lts.t ->
  high:(string -> bool) ->
  low:(string -> bool) ->
  Dpma_lts.Bisim.product_front
(** The {!observed_pair}, pruned and pre-reduced once
    ({!Dpma_lts.Bisim.product_front}); every check of the hierarchy can
    run on it. *)

val front_verdict : ?jobs:int -> Dpma_lts.Bisim.product_front -> verdict
(** The paper's weak-bisimulation verdict on a {!front}, with the
    distinguishing formula on failure. [check_lts] is [front_verdict] of
    [front]. *)

val check_hierarchy :
  ?jobs:int ->
  Dpma_lts.Lts.t ->
  high:(string -> bool) ->
  low:(string -> bool) ->
  verdict * bool * bool
(** [(verdict, trace_secure, branching_secure)] — the results of
    {!check_lts}, {!trace_secure} and {!branching_secure}, formula text
    included — from one observed pair and one {!front}, so the pruning
    and pre-reduction run once. The decisions run finest first, since
    branching bisimilarity implies weak bisimilarity, which implies
    weak-trace equivalence: the branching decision first, and if it is
    secure the result is [(Secure, true, true)]; otherwise the weak
    decision, and if it is secure the result is [(Secure, true, false)];
    otherwise the trace decision as well. A model secure at every level
    costs one product decision, the simplified rpc all three. *)

val pp_verdict : Format.formatter -> verdict -> unit

val branching_secure :
  ?jobs:int ->
  Dpma_lts.Lts.t ->
  high:(string -> bool) ->
  low:(string -> bool) ->
  bool
(** The same check under *branching* bisimilarity — strictly stronger than
    the paper's weak-bisimulation notion (it additionally preserves the
    branching structure of internal stuttering). [true] implies the weak
    check passes too; a stricter designer may require it. *)

val trace_secure :
  ?jobs:int ->
  Dpma_lts.Lts.t ->
  high:(string -> bool) ->
  low:(string -> bool) ->
  bool
(** The *trace-based* variant (SNNI in the Focardi–Gorrieri classification
    the paper builds on): the two systems need only have the same weak
    trace language. Strictly weaker than the bisimulation check: since
    trace languages here are prefix-closed, a DPM-induced deadlock after a
    legal prefix is invisible — the paper's simplified rpc system *passes*
    this check while failing the weak-bisimulation one, which is precisely
    why the methodology uses bisimulation. *)
