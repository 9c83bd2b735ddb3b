(** Bisimulation equivalences.

    Strong bisimulation is computed by signature-based partition refinement;
    Markovian (lumping) equivalence refines signatures with cumulative
    rates, giving ordinary lumpability on the underlying CTMC.

    Weak (observational) equivalence is Milner's reduction to strong
    bisimulation over the double-arrow relation — but the double arrows
    are never materialized. Weak signatures are computed directly on the
    packed CSR, one tau-closure pass per refinement round over the
    tau-SCC condensation DAG, one entry per component
    ({!Tau.weak_signatures}); nothing is carried from one round to the
    next. They equal, pair for pair, the strong signatures of the
    saturated LTS, so partitions, verdicts, rounds and distinguishing
    formulas are bit-identical to what strong refinement of the
    materialized saturation would produce ({!Tau.saturate} still
    materializes the closure where actual weak transitions are needed).
    A round's signature memory tracks live blocks, not the saturated
    edge set; docs/WEAK_EQUIVALENCE.md documents the contract and the
    memory model. Branching signatures (Blom–Orzan) are computed per
    state each round, like the strong and Markovian ones.

    {2 Parallel refinement}

    Every refinement-based entry point takes [?jobs] (default
    {!Dpma_util.Pool.default_jobs}): with more than one job, each round's
    signature pass — read-only over the frozen CSR and the pre-round
    partition — is dealt to the domain pool as contiguous state ranges,
    and the per-chunk signature classes are merged back in state order,
    assigning global class ids in first-seen order. The merged numbering
    is exactly the sequential first-seen-by-state-index numbering, so
    partitions, quotients, verdicts, and distinguishing formulas are
    bit-identical for any job count.

    Every signature — strong, Markovian, branching, weak — is a function
    of the round's partition: the refinement loop applies it to the
    partition once per round, in the coordinating domain, and the
    function that application returns must be read-only, because the
    workers share it. Strong, Markovian and branching signatures do no
    work at that application (partial application only); the weak one
    runs its whole tau-closure pass there, so workers only look
    signatures up.

    [?par_cutoff] is the state count below which a refinement runs
    sequentially even when [jobs > 1] (the signature pass is then too
    cheap to amortize the pool's per-round spawn cost). It defaults
    adaptively — 1024, or never parallelizing when
    {!Dpma_util.Pool.hardware_parallelism} is 1 — and affects scheduling
    only, never results. *)

val strong_partition : ?jobs:int -> ?par_cutoff:int -> Lts.t -> int array
(** Coarsest strong-bisimulation partition; entry [i] is the block of state
    [i], blocks numbered densely from 0. *)

val weak_partition : ?jobs:int -> ?par_cutoff:int -> Lts.t -> int array
(** Coarsest weak-bisimulation partition, computed with lazy tau-closure
    signatures on the packed CSR — the saturated LTS is never
    materialized. *)

val markovian_partition : ?jobs:int -> ?par_cutoff:int -> Lts.t -> int array
(** Coarsest ordinary-lumpability partition: signatures accumulate total
    exponential rate (and immediate weight, per priority) per label and
    target block. *)

val branching_partition : ?jobs:int -> ?par_cutoff:int -> Lts.t -> int array
(** Coarsest branching-bisimulation partition (Blom–Orzan signature
    refinement). Branching bisimilarity
    is strictly finer than weak bisimilarity and preserves the branching
    structure of internal stuttering; it is offered as a stricter
    alternative for the noninterference check. *)

val branching_equivalent :
  ?jobs:int -> ?par_cutoff:int -> Lts.t -> Lts.t -> bool

val strong_equivalent : ?jobs:int -> ?par_cutoff:int -> Lts.t -> Lts.t -> bool

val weak_equivalent : ?jobs:int -> ?par_cutoff:int -> Lts.t -> Lts.t -> bool
(** Weak bisimilarity of the two initial states, via {!weak_partition} of
    the disjoint union. *)

val minimize_strong : ?jobs:int -> ?par_cutoff:int -> Lts.t -> Lts.t

val minimize_weak : ?jobs:int -> ?par_cutoff:int -> Lts.t -> Lts.t
(** Quotient by the coarsest weak partition, carrying the saturated
    (double-arrow) transitions of the result — one weak-transition edge
    set per class pair. The partition comes from the lazy pass (the
    input is never saturated); double arrows are materialized by
    {!Tau.saturate} on the quotient only (one state per weak class),
    under a ["bisim.saturate"] span, so the quadratic step runs at
    minimized size. *)

val determinize : ?max_states:int -> Lts.t -> Lts.t
(** Observable-deterministic automaton by epsilon-closure subset
    construction: tau-free, one transition per (state, label), recognizing
    exactly the weak traces of the input. Exponential in the worst case;
    raises {!Lts.Too_many_states} beyond [max_states] (default 500_000).
    Subsets are numbered in breadth-first order; within a state, labels
    are taken in {!Dpma_pa.Label.compare_by_name} order, which numbers
    the new successor subsets and orders the state's edges. The result
    depends only on the input, not on the order labels were interned
    in. *)

val trace_equivalent : ?jobs:int -> ?par_cutoff:int -> Lts.t -> Lts.t -> bool
(** Weak trace equivalence (equality of observable-trace languages, which
    are prefix-closed here): determinize both sides and compare by strong
    bisimulation — on deterministic automata the two notions coincide.
    Strictly coarser than weak bisimilarity: deadlocks after a common
    trace are invisible. *)

(** {1 On-the-fly product refinement}

    The noninterference check relates the initial states of two LTSs; the
    product entry points below decide exactly that question without ever
    materializing the disjoint union of the unreduced sides. A
    {!product_front} prunes each side to the part reachable from its
    initial state and pre-reduces it on its own (strong quotient, tau-SCC
    collapse — sound for weak, branching and trace equivalence alike), once;
    the weak, branching and trace decisions then all run on that one front.
    For the weak decision the reduced sides are stitched unsaturated and
    refined through the lazy weak pass (no ["bisim.saturate"] span fires).
    The watched refinement over the stitched product stops as soon as the
    two initial states split (early-exit INSECURE) or as soon as the
    partition over the pruned product is stable with the initial states
    co-blocked (SECURE). Each decision records its exit in the
    [ni.product.*] instruments (with the front's pruned-state count), and
    the weak one in [bisim.tau.*]. *)

type product_trail = {
  left : Lts.t;  (** the original (unpruned, unreduced) left side *)
  right : Lts.t;  (** the original right side *)
  split_round : int;
      (** 1-based watched-refinement round whose signatures told the two
          initial states apart *)
}
(** Evidence of an initial-state split, sufficient for
    [Diagnose.of_product_trail] to extract a distinguishing formula
    without re-deciding the verdict. *)

type product_result =
  | Product_secure of { partition : int array; rounds : int }
      (** The stable partition over the pruned, per-side-reduced product
          (left-side classes first), and the number of refinement rounds
          run. *)
  | Product_insecure of product_trail

type product_front
(** Two sides, each pruned to its reachable part and pre-reduced, plus
    the original sides (for the insecure trail) and the number of states
    the pruning dropped. *)

val product_front :
  ?jobs:int -> ?par_cutoff:int -> Lts.t -> Lts.t -> product_front
(** [product_front a b] prunes and pre-reduces both sides under one
    ["bisim.front"] span. Build it once and run every decision on it. *)

val weak_front_check :
  ?jobs:int -> ?par_cutoff:int -> product_front -> product_result
(** Weak bisimilarity of the two initial states — the same verdict as
    {!weak_equivalent} on the original sides, with watched early exit.
    The watched refinement parallelizes like every other: the early-exit
    check runs in the coordinator on the deterministically merged round
    result, so the exit round and verdict are identical for any job
    count. *)

val branching_front_secure :
  ?jobs:int -> ?par_cutoff:int -> product_front -> bool
(** {!branching_equivalent} through the watched product refiner:
    branching signatures refine the reduced union until the initial
    states split or the partition is stable. The tau-SCC collapse is
    sound because the branching signature is divergence-blind; a
    divergence-sensitive variant would have to mark divergent SCCs
    instead. *)

val trace_front_secure :
  ?max_states:int -> ?jobs:int -> ?par_cutoff:int -> product_front -> bool
(** {!trace_equivalent} through the watched product refiner: both reduced
    sides (pruning and pre-reduction keep the weak-trace language) are
    determinized, and the strong refinement of the determinized product
    stops at the first initial-state split. *)
