(** Tau-SCCs, tau-SCC condensation and the per-round weak signature pass.

    This module is the engine behind the on-the-fly weak saturation used
    by {!Bisim}: weak signatures are computed directly on the packed CSR,
    one tau-closure pass over the condensation DAG per refinement round,
    one entry per tau-SCC component, instead of materializing the
    saturated transition relation. Nothing is carried across rounds, so
    weak signatures are as stateless as the strong, Markovian and
    branching ones. The design and the memory model are documented in
    {e docs/WEAK_EQUIVALENCE.md}. *)

(** {1 Condensation} *)

(** [tau_sccs lts] — the strongly connected components of the tau-only
    transition relation, by {!Dpma_util.Scc.tarjan_csr} over a tau-only
    CSR that keeps each state's edge order. Components are numbered in
    reverse topological order. *)
val tau_sccs : Lts.t -> Dpma_util.Scc.components

(** The tau-SCC condensation of an LTS: states grouped into strongly
    connected components of the tau-only transition relation, plus the
    induced component DAG, both in CSR form. Components are numbered in
    reverse topological order (every condensed tau edge points to a
    strictly smaller id). *)
type condensation = {
  num_comps : int;  (** number of tau-SCC components *)
  comp_of : int array;  (** state -> component id *)
  tau_row : int array;
      (** CSR row index into [tau_tgt], length [num_comps + 1] *)
  tau_tgt : int array;
      (** condensed tau edges, deduped, self-loops removed *)
  mem_row : int array;
      (** CSR row index into [members], length [num_comps + 1] *)
  members : int array;
      (** member states of each component, in Tarjan discovery order *)
}

(** [condense lts] computes the tau-SCC condensation of [lts]. Linear in
    states + edges. {!weak_signatures} runs it under a
    ["bisim.tau.condense"] span. *)
val condense : Lts.t -> condensation

(** {1 Weak signatures} *)

(** [weak_signatures lts] condenses [lts] once (under a
    ["bisim.tau.condense"] span) and sets [bisim.tau.components]. The
    result [f] is applied once per refinement round: [f block] computes
    the tau-closure block sets and the weak signatures of every
    component of [lts] under partition [block], and returns a read-only
    lookup. [f block s] is exactly the sorted, deduplicated packed-pair
    array that [strong_signature (saturate lts) s] would produce — so
    signature refinement over it is round-for-round bit-identical to
    strong refinement of the materialized saturation. Nothing is kept
    between rounds; the lookup may be shared by concurrent readers. *)
val weak_signatures : Lts.t -> int array -> int -> int array

(** {1 Materialized saturation}

    {!weak_signatures} never builds the double-arrow relation; the
    functions here do, for the few consumers that need actual weak
    transitions rather than signatures. *)

val tau_closure : Lts.t -> int list array
(** [tau_closure lts] is, per state, the sorted list of states reachable
    through tau transitions (including the state itself). Quadratic
    output in the worst case — callers are the subset construction and
    {!saturate}, both of which run on small or already-minimized
    models. *)

val saturate : Lts.t -> Lts.t
(** Weak-transition closure: in the result, an [Obs a] transition
    [s -> t] exists iff [s =tau*=> . -a-> . =tau*=> t] in the input, and
    a [Tau] transition [s -> t] iff [s =tau*=> t] (including [s = t]).
    Rates are dropped. A state's edges are stored in the reverse of
    their insertion order (tau moves over the sorted closure, then
    observable moves per emitter). Opens no span: callers account the
    closure under their own ([bisim.saturate] in
    {!Bisim.minimize_weak}, [diagnose.saturate] in the diagnostics).

    The weak equivalence entry points never call this: it is the final
    materialization step of {!Bisim.minimize_weak} (at quotient size,
    one state per weak class) and the small-model closure used by the
    diagnostics replay. *)
