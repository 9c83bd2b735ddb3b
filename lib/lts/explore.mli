(** Level-synchronous breadth-first exploration: the one state-space
    engine under {!Lts.build} and {!Flts.build_family}.

    The engine owns everything the two builders share: the hash-consed
    state table (terms keyed by unique id, numbered in merge order), the
    segmented term store, the spill-capable {!Segstore} edge and row
    columns (with an optional per-edge guard column), the per-round
    {!Dpma_util.Guard.poll}, the parallel-round cutoff, the
    frontier-order merge and the final CSR compaction. A caller supplies
    only how to derive one frontier term ([shard]/[derive]/[finish]) and
    how to turn a derivation into edges ([emit]).

    Each round the frontier — a contiguous id range, since states are
    numbered in merge order — is derived either in the coordinating
    domain, which hands each derivation to [emit] as soon as it is
    made, or, when it holds at least [par_threshold] states and
    [jobs > 1], in chunks dealt to the domain pool with one [shard] per
    worker, whose slices are then handed to [emit] in frontier order on
    the coordinating domain. Either way [emit] sees the frontier in
    order, which pins state numbering, edge order and any state [emit]
    keeps (guard interning order) to the sequential ones: the output is
    bit-identical for any job count, spilled or not. A derivation error
    in a round takes precedence over the round crossing [max_states],
    as when the whole frontier is derived before it is emitted.

    Every build records the shared instruments [lts.par.rounds],
    [lts.par.frontier], [lts.par.merge.seconds], [lts.par.segments],
    [lts.par.segment_bytes_peak], [lts.csr_pack.seconds] and
    [lts.spill.*]. *)

exception Too_many_states of int
(** Raised when a build would number more than [max_states] states. *)

type stats = {
  jobs : int;  (** worker count the build was asked to use *)
  rounds : int;  (** BFS depth: level-synchronous frontier expansions *)
  peak_frontier : int;  (** largest frontier expanded in one round *)
  merge_seconds : float;
      (** time spent merging worker slices in frontier order (parallel
          rounds only) *)
  segments : int;  (** fixed-size storage segments allocated *)
  segment_bytes_peak : int;
      (** peak bytes held resident in segment storage before CSR
          compaction (spilled segments leave this figure) *)
  spilled_segments : int;
      (** full edge/row segments spilled to the temp file (0 without a
          spill directory or under budget) *)
  spilled_bytes : int;  (** bytes written to the spill temp file *)
  spill_write_seconds : float;
      (** wall-clock time spent writing spilled segments *)
  build_seconds : float;  (** wall-clock time of the exploration *)
}

type t = {
  seeds : int array;  (** state id of each seed term, in seed order *)
  num_states : int;
  term : int -> Dpma_pa.Term.t;  (** the state term of an id *)
  row : int array;  (** CSR row offsets, length [num_states + 1] *)
  lab : int array;
  tgt : int array;
  rate_kind : int array;  (** 1 = exponential, 2 = immediate, 3 = passive *)
  rate_val : float array;
  rate_prio : int array;
  guard : int array;  (** per-edge guard ids; empty without [~guards] *)
  stats : stats;
}

val run :
  ?max_states:int ->
  ?jobs:int ->
  ?par_threshold:int ->
  ?spill_dir:string ->
  ?max_resident_bytes:int ->
  ?seg_bits:int ->
  phase:string ->
  partial:(string * float) list ->
  guards:bool ->
  shard:(unit -> 'shard) ->
  derive:('shard -> Dpma_pa.Term.t -> 'd) ->
  finish:('shard -> unit) ->
  emit:((int -> Dpma_pa.Rate.t -> Dpma_pa.Term.t -> int -> unit) -> 'd -> unit) ->
  Dpma_pa.Term.t array ->
  t
(** [run ~phase ~partial ~guards ~shard ~derive ~finish ~emit seeds]
    explores everything reachable from [seeds] (numbered first, in
    order; equal terms share an id). [finish] is called once per shard
    after its slice, on the coordinating domain. [emit push d] receives
    each frontier state's derivation in frontier order and calls
    [push label rate target guard] once per edge, in edge order; the
    guard id is stored only when [guards] is set.

    [max_states] (default 500_000) bounds the state count
    ({!Too_many_states}); [jobs] defaults to
    {!Dpma_util.Pool.default_jobs}; [par_threshold] defaults to
    [256 * jobs], or to never parallelizing when
    {!Dpma_util.Pool.hardware_parallelism} is 1 (scheduling only:
    results are identical for any value); [spill_dir]/[max_resident_bytes]/[seg_bits]
    configure the {!Segstore} policy, whose temp file is removed on
    every exit. Polls the ambient {!Dpma_util.Guard} before each round
    under [phase], reporting [partial] followed by the states,
    transitions and rounds explored so far. *)
