(** Multicore execution layer: a fixed-size domain pool over stdlib
    [Domain], with no dependency beyond the compiler's runtime.

    Every embarrassingly parallel loop of the evaluation stack (simulation
    replications, figure parameter sweeps, battery/disk studies) funnels
    through {!parallel_map}. Results are order-preserving and independent
    of the job count, so parallel and sequential executions are
    interchangeable bit for bit whenever the worker function is
    deterministic per item. *)

val default_jobs : unit -> int
(** The job count used when [?jobs] is omitted. Resolution order:
    {ol {- the last {!set_default_jobs} value (the [-j] command-line flags);}
        {- the [DPMA_JOBS] environment variable (positive integer);}
        {- [Domain.recommended_domain_count () - 1], clamped to at least 1
           (one domain is left to the caller's other work).}} *)

val set_default_jobs : int -> unit
(** Override the default job count process-wide (clamped to [>= 1]);
    command-line [-j] flags call this. *)

val hardware_parallelism : unit -> int
(** How many domains the machine can run simultaneously
    ([Domain.recommended_domain_count], clamped to [>= 1]). Consumers with
    a per-round fixed parallelism cost consult this in their default
    sequential-fallback policy: when it is 1, spawning workers can only
    lose, so their defaults stay sequential even under [-j 4]. *)

val recommended_chunk : n:int -> jobs:int -> int
(** Chunk size for dealing [n] items to [jobs] workers through
    {!map_chunks_ordered}: about eight chunks per worker (so a straggling
    chunk rebalances), floored at 32 items (so the atomic cursor and
    per-chunk bookkeeping never dominate tiny chunks) and capped at 4096
    (so huge inputs still rebalance). Always in [\[1, max 32 n\]].
    Scheduling only — results are identical for any chunk size. *)

val parallel_map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [parallel_map ~jobs f xs] is [List.map f xs] computed by [jobs] domains
    (the calling domain plus [jobs - 1] spawned ones). Work is dealt in
    chunks via an [Atomic] cursor; the result list preserves input order.

    If any application of [f] raises, the exception raised on the
    lowest-index item is re-raised (with its backtrace) in the calling
    domain after all workers have finished; no further chunks are claimed
    once a failure is recorded.

    [jobs <= 1], singleton and empty inputs, and calls made from inside
    another [parallel_map] worker all run sequentially in the calling
    domain — nesting therefore never oversubscribes the machine.

    [f] must be safe to run concurrently with itself (the whole library's
    analysis and simulation paths are: randomness flows through explicit
    {!Prng.t} values and shared model structures are read-only). *)

val map_chunks_ordered :
  ?jobs:int ->
  ?chunk:int ->
  init:(unit -> 'w) ->
  f:('w -> 'a -> 'b) ->
  ?finish:('w -> unit) ->
  'a array ->
  'b array
(** [map_chunks_ordered ~init ~f ~finish xs] maps [f] over [xs] with a
    per-worker state: each worker calls [init] once when it starts, threads
    the resulting state through every [f] application it claims, and after
    {e all} domains have joined, [finish] is applied to every worker state
    from the calling domain, in worker-index order — so stateful merges
    (e.g. folding SOS memo shards back into a shared engine) happen
    deterministically and without races. The result array preserves input
    order regardless of scheduling, exactly like {!parallel_map}.

    [?chunk] fixes the chunk size of the atomic work-dealing cursor
    (default [max 1 (n / (jobs * 4))]); it affects scheduling only, never
    results.

    Sequential degradation mirrors {!parallel_map} ([jobs <= 1], length
    [<= 1], or a call from inside another pool worker): one state, items in
    index order, then [finish]. [init] is never called for an empty input.
    On failure the lowest-index exception is re-raised and [finish] is not
    called. *)
