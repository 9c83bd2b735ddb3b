(** The complete set of metrics recorded by the toolset — the measurement
    contract, declared in one place.

    Every counter, gauge, and histogram used anywhere in the stack is
    defined here, so that (a) the registry contents do not depend on which
    modules happen to be linked, (b) [docs/OBSERVABILITY.md] documents
    exactly this list (checked by [test/doc_sync.ml] via the [@checkdocs]
    alias), and (c) a name/unit change is a deliberate, reviewable edit to
    a single file.

    Naming convention: [<layer>.<subject>[.<aspect>]], all lowercase,
    dot-separated — [adl.*] front end, [lts.*] state-space construction,
    [bisim.*] partition refinement, [ni.*] the noninterference product
    refiner, [ctmc.*] Markovian solution, [sim.*] discrete-event
    simulation, [pool.*] the domain pool. *)

(** {1 Front end (adl)} *)

val adl_tokens : Metrics.counter
(** [adl.lex.tokens] — tokens produced by the lexer (EOF excluded). *)

val adl_parses : Metrics.counter
(** [adl.parse.archis] — architectural descriptions parsed. *)

val adl_elem_types : Metrics.counter
(** [adl.parse.elem_types] — element types across parsed descriptions. *)

val adl_instances : Metrics.counter
(** [adl.parse.instances] — instances across parsed descriptions. *)

val adl_attachments : Metrics.counter
(** [adl.parse.attachments] — attachments across parsed descriptions. *)

val adl_constants : Metrics.counter
(** [adl.elaborate.constants] — process constants produced by elaboration
    (one per reachable (equation, argument) tuple). *)

(** {1 Compiled term core (pa, sos)} *)

val pa_terms : Metrics.gauge
(** [pa.terms] — live hash-consed terms in the process-wide sharing table
    (sampled after each LTS build). *)

val pa_labels : Metrics.gauge
(** [pa.labels] — distinct interned action labels, [tau] included
    (sampled after each LTS build). *)

val sos_memo_hits : Metrics.counter
(** [sos.memo.hits] — SOS derivations answered from a build's
    per-term memo table instead of being recomputed. *)

val sos_memo_misses : Metrics.counter
(** [sos.memo.misses] — SOS derivations actually computed (and
    memoized); [hits / (hits + misses)] is the memo hit rate. *)

(** {1 State space (lts)} *)

val lts_builds : Metrics.counter
(** [lts.builds] — LTS constructions run. *)

val lts_states : Metrics.counter
(** [lts.states] — states explored, summed over builds. *)

val lts_transitions : Metrics.counter
(** [lts.transitions] — transitions derived, summed over builds. *)

val lts_build_seconds : Metrics.histogram
(** [lts.build.seconds] — wall-clock time of each LTS construction. *)

val lts_csr_pack_seconds : Metrics.histogram
(** [lts.csr_pack.seconds] — wall-clock time the exploration engine
    spends compacting each built LTS's segments into its CSR (compressed
    sparse row) arrays, included in [lts.build.seconds] (or
    [family.build.seconds]). Derived LTSs (quotients, saturation,
    determinization) are written by [Lts.writer] and not observed. *)

val lts_par_rounds : Metrics.counter
(** [lts.par.rounds] — level-synchronous BFS rounds (frontier expansions),
    summed over plain and featured builds; the BFS depth of a single
    build. *)

val lts_par_frontier : Metrics.histogram
(** [lts.par.frontier] — frontier size (states expanded) at each BFS
    level. *)

val lts_par_derives_per_worker : Metrics.histogram
(** [lts.par.derives_per_worker] — SOS derivations (memo hits + misses)
    performed by each worker of each parallel round (balance indicator for
    the chunked frontier dealing; sequential rounds record one sample). *)

val lts_par_merge_seconds : Metrics.histogram
(** [lts.par.merge.seconds] — wall-clock time each build spent merging
    worker-derived successor slices in frontier order (the sequential
    portion that pins state numbering), summed per build. *)

val lts_par_segments : Metrics.counter
(** [lts.par.segments] — fixed-size storage segments (edge, row, and term
    chunks) allocated by builds, summed over builds. *)

val lts_par_segment_bytes : Metrics.gauge
(** [lts.par.segment_bytes_peak] — peak bytes held in chunked segment
    storage by the last build, before compaction into CSR (resident
    segments only: spilled segments leave this figure). *)

val lts_spill_segments : Metrics.counter
(** [lts.spill.segments] — full edge/row segments spilled to
    memory-mapped temp files under a [max_resident_bytes] budget, summed
    over builds. *)

val lts_spill_bytes : Metrics.counter
(** [lts.spill.bytes] — bytes written to spill files, summed over
    builds. *)

val lts_spill_write_seconds : Metrics.histogram
(** [lts.spill.write_seconds] — wall-clock time each build spent writing
    spilled segments to its temp file (one sample per build that
    spilled). *)

val guard_polls : Metrics.counter
(** [guard.polls] — resource-guard checks performed between BFS rounds,
    refinement rounds and CTMC solver sweeps, and during simulation runs,
    while a guard was installed. *)

val guard_trips : Metrics.counter
(** [guard.trips] — resource-guard limit violations: each one aborts the
    running phase with {!Dpma_util.Guard.Resource_exceeded} and ends in
    a degraded verdict, never an OOM kill. *)

(** {1 Equivalence checking (bisim)} *)

val bisim_refines : Metrics.counter
(** [bisim.refines] — partition-refinement fixpoints computed. *)

val bisim_rounds : Metrics.counter
(** [bisim.refine.rounds] — refinement iterations, summed over fixpoints
    (the "bisim iterations" of a run). *)

val bisim_blocks_per_round : Metrics.histogram
(** [bisim.refine.blocks] — block count after each refinement round. *)

val bisim_blocks : Metrics.gauge
(** [bisim.blocks] — final block count of the last refinement fixpoint. *)

val bisim_par_rounds : Metrics.counter
(** [bisim.par.rounds] — refinement rounds whose signature pass was dealt
    to the domain pool (subset of [bisim.refine.rounds]). *)

val bisim_par_blocks_per_worker : Metrics.histogram
(** [bisim.par.blocks_per_worker] — distinct signature classes produced
    by one worker in one parallel refinement round (summed over the
    chunks the worker claimed); skew across workers indicates chunking
    imbalance. *)

val bisim_par_merge_seconds : Metrics.histogram
(** [bisim.par.merge.seconds] — time the coordinator spent merging the
    per-chunk signature classes in state order, per parallel round. *)

val bisim_par_seq_fallbacks : Metrics.counter
(** [bisim.par.seq_fallbacks] — refinement fixpoints that ran
    sequentially although more than one job was requested, because the
    state count was under the parallel cutoff (or the hardware cannot
    run two domains at once). *)

val bisim_tau_components : Metrics.gauge
(** [bisim.tau.components] — tau-SCC components condensed by the last
    weak refinement (the unit of the per-round weak signature pass). *)

(** {1 Noninterference product refiner (ni)} *)

val ni_product_pruned : Metrics.counter
(** [ni.product.states_pruned] — states the product refiner dropped by
    reachability pruning before refining (states of either side that the
    side's initial state cannot reach), summed over checks. *)

val ni_product_rounds : Metrics.counter
(** [ni.product.rounds] — watched-refinement rounds run by product
    checks, summed over checks (early exits make this smaller than the
    rounds a full fixpoint would take). *)

val ni_product_secure_exits : Metrics.counter
(** [ni.product.secure_exits] — product checks that ended SECURE: the
    partition over the pruned product stabilized with the two initial
    states still co-blocked. *)

val ni_product_insecure_exits : Metrics.counter
(** [ni.product.insecure_exits] — product checks that exited early
    INSECURE: a refinement round told the two initial states apart. *)

(** {1 Markovian solution (ctmc)} *)

val ctmc_builds : Metrics.counter
(** [ctmc.builds] — CTMC extractions (vanishing-state eliminations). *)

val ctmc_states : Metrics.counter
(** [ctmc.states] — tangible states, summed over extractions. *)

val ctmc_transitions : Metrics.counter
(** [ctmc.transitions] — rated transitions, summed over extractions. *)

val ctmc_solves : Metrics.counter
(** [ctmc.solves] — steady-state solutions computed. *)

val ctmc_solve_iterations : Metrics.counter
(** [ctmc.solve.iterations] — linear-solver iterations, summed over BSCC
    solves: Gauss–Seidel sweeps for sparse components, one per elimination
    pivot for direct dense solves. *)

val ctmc_absorption_sweeps : Metrics.counter
(** [ctmc.absorption.sweeps] — local fixed-point sweeps of the
    absorption computation, summed over solves: only nontrivial transient
    SCCs iterate (singleton SCCs are evaluated directly). *)

val ctmc_solve_unconverged : Metrics.counter
(** [ctmc.solve.unconverged] — solver loops (Gauss–Seidel, absorption,
    first-passage and reward fixed points) that reached their sweep cap
    and raised a [Guard.Resource_exceeded] convergence trip. *)

val ctmc_solve_residual : Metrics.gauge
(** [ctmc.solve.residual] — final balance-equation residual
    [||pi Q||_inf] of the last steady-state solve (worst BSCC). *)

val ctmc_reward_seconds : Metrics.histogram
(** [ctmc.rewards.seconds] — wall-clock time of each reward-measure
    evaluation batch against a solved CTMC. *)

(** {1 Simulation (sim)} *)

val sim_runs : Metrics.counter
(** [sim.runs] — simulation trajectories executed (replications,
    batch-means runs, and first-passage runs). *)

val sim_events : Metrics.counter
(** [sim.events] — simulation events executed, summed over trajectories. *)

val sim_events_per_sec : Metrics.gauge
(** [sim.events_per_sec] — aggregate event throughput of the last
    replication set (events over wall-clock seconds, all domains). *)

val sim_ci_rel_half_width : Metrics.histogram
(** [sim.ci.rel_half_width] — relative confidence-interval half-width
    ([half_width / |mean|]) of each estimated measure, recorded once per
    replication or batch-means estimate with a non-zero mean. *)

(** {1 Featured configuration families (family)} *)

val family_builds : Metrics.counter
(** [family.builds] — featured family state-space builds (one union BFS
    shared by every configuration of a policy family). *)

val family_configs : Metrics.gauge
(** [family.configs] — configuration count of the last featured build. *)

val family_states : Metrics.gauge
(** [family.states] — union states of the last featured build. *)

val family_edges : Metrics.gauge
(** [family.edges] — guarded transitions of the last featured build. *)

val family_guards : Metrics.gauge
(** [family.guard_table] — distinct interned feature guards of the last
    featured build (the guard table size). *)

val family_build_seconds : Metrics.histogram
(** [family.build.seconds] — wall-clock time of each featured family
    build. *)

val family_project_seconds : Metrics.histogram
(** [family.project.seconds] — wall-clock time of each per-configuration
    projection out of a featured system. *)

val family_sharing_ratio : Metrics.gauge
(** [family.sharing_ratio] — union states divided by the summed state
    counts of all projections, for the last full projection; 1/N is
    perfect sharing across N configurations, 1.0 means no sharing. *)

val family_guard_words : Metrics.gauge
(** [family.guard_words] — total bitset payload words held by the guard
    table of the last featured build (distinct guards × words per
    guard, 63 configuration bits per word). *)

val family_distinct_quotients : Metrics.gauge
(** [family.distinct_quotients] — distinct member LTSs solved by the
    last deduplicated family solve; members with equal LTSs share one
    build, solve and evaluation. *)

val family_solves_shared : Metrics.gauge
(** [family.solves_shared] — members of the last deduplicated family
    solve that reused another member's steady-state solution
    (members − distinct quotients). *)

(** {1 Domain pool (pool)} *)

val pool_parallel_maps : Metrics.counter
(** [pool.parallel_maps] — parallel map invocations that actually spawned
    worker domains (sequential fallbacks excluded). *)

val pool_tasks : Metrics.counter
(** [pool.tasks] — work items dealt to pool workers. *)

val pool_tasks_per_worker : Metrics.histogram
(** [pool.tasks_per_worker] — items processed by each worker of each
    parallel map (balance indicator: a tight distribution means even
    dealing). *)

val pool_jobs : Metrics.gauge
(** [pool.jobs] — worker-domain count of the last parallel map. *)

val pool_utilization : Metrics.gauge
(** [pool.utilization] — busy fraction of the last parallel map: summed
    worker wall-time over (workers x elapsed), in [0, 1]. *)

val force : unit -> unit
(** No-op whose call forces this module's initialization, guaranteeing
    every instrument above is registered (used by tools that only read the
    registry, e.g. [test/doc_sync.ml]). *)
