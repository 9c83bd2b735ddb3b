(** Tau-SCCs, tau-SCC condensation and the lazy weak tau-closure cache.

    This module is the engine behind the on-the-fly weak saturation used
    by {!Bisim}: weak signatures are computed directly on the packed CSR
    via on-demand tau-reachability over the condensation DAG, memoized
    per tau-SCC component, instead of materializing the saturated
    transition relation. Cached entries are carried across refinement
    rounds by block renaming and dropped when a block they depend on
    splits, so peak memory tracks the number of live blocks, not the
    saturated edge count. The design, the invalidation rule and the
    memory model are documented in {e docs/WEAK_EQUIVALENCE.md}. Branching
    signatures need no cache: {!Bisim} computes them per state on the
    small pre-reduced systems it refines. *)

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

(** [condense lts] computes the tau-SCC condensation of [lts]. Runs
    under a ["bisim.tau.condense"] span. Linear in states + edges. *)
val condense : Lts.t -> condensation

(** {1 Cross-round renaming} *)

(** [renaming ~old_block ~new_block] maps each old block id to its new
    id when the block did not split this round, or to [-1] when it did.
    The mapping is injective on unsplit blocks: a refinement key
    includes the old block, so a new block never spans two old ones. *)
val renaming : old_block:int array -> new_block:int array -> int array

(** [remap_pairs rename pairs] rewrites the block component of every
    packed [(label, block)] pair through [rename] and re-sorts, or
    returns [None] if any mentioned block was split. The result needs no
    re-deduplication because [rename] is injective on unsplit blocks. *)
val remap_pairs : int array -> int array -> int array option

(** {1 Weak signature cache} *)

(** Per-component cache of tau-closure block sets and full weak
    signatures. For any state [s], {!Weak.signature_fn} returns exactly
    the sorted, deduplicated packed-pair array that
    [strong_signature (saturate lts) s] would produce — so signature
    refinement over this cache is round-for-round bit-identical to
    strong refinement of the materialized saturation. *)
module Weak : sig
  type t

  (** A thread-confined worker view over a frozen parent cache, used by
      the parallel refinement rounds. *)
  type shard

  (** [create lts] condenses [lts] (under a ["bisim.tau.condense"] span)
      and returns an empty cache. *)
  val create : Lts.t -> t

  (** Number of tau-SCC components of the underlying LTS. *)
  val components : t -> int

  (** Running peak of bytes interned across all rounds so far. *)
  val bytes_peak : t -> int

  (** [signature_fn t] returns the signature function for sequential
      use: [f block s] is the weak signature of [s] under partition
      [block], computed on demand and memoized per component. *)
  val signature_fn : t -> int array -> int -> int array

  (** [shard t] creates a worker-local shard. The parent must stay
      frozen (no [advance], no sequential lookups) while shards are
      live. *)
  val shard : t -> shard

  (** Like {!signature_fn}, but lookups fall back from the frozen
      parent to the shard's local tables, and computed entries are
      stored only in the shard. *)
  val shard_signature_fn : shard -> int array -> int -> int array

  (** [merge_shard t sh] adopts [sh]'s entries into the parent — called
      from the coordinating domain after all workers joined.
      Concurrently computed duplicates are content-equal, so first-wins
      adoption is deterministic in content. *)
  val merge_shard : t -> shard -> unit

  (** [advance t ~old_block ~new_block] carries the cache across a
      refinement round: entries whose mentioned blocks all survived are
      renamed in place; entries touching a split block are dropped and
      recomputed on demand. *)
  val advance : t -> old_block:int array -> new_block:int array -> unit

  (** Flush accumulated hit/miss/remap/invalidation counts and peak
      bytes into the [bisim.tau.*] instruments and reset the counters. *)
  val record : t -> unit
end

(** {1 Materialized saturation}

    The cache above never builds the double-arrow relation; the
    functions here do, for the few consumers that need actual weak
    transitions rather than signatures. *)

val tau_closure : Lts.t -> int list array
(** [tau_closure lts] is, per state, the sorted list of states reachable
    through tau transitions (including the state itself). Quadratic
    output in the worst case — callers are the subset construction and
    {!saturate}, both of which run on small or already-minimized
    models. *)

val saturate : ?traced:bool -> Lts.t -> Lts.t
(** Weak-transition closure: in the result, an [Obs a] transition
    [s -> t] exists iff [s =tau*=> . -a-> . =tau*=> t] in the input, and
    a [Tau] transition [s -> t] iff [s =tau*=> t] (including [s = t]).
    Rates are dropped. [~traced:false] skips the ["bisim.saturate"]
    tracing span — for callers (diagnostics) that account the closure
    under a span of their own.

    The weak equivalence entry points never call this: it is the final
    materialization step of {!Bisim.minimize_weak} (at quotient size,
    one state per weak class) and the small-model closure used by the
    diagnostics replay. *)
