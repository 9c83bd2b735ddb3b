(** Structural operational semantics of the process algebra kernel.

    [derive (make defs) t] derives the multiset of outgoing transitions
    of [t]: interned action label ({!Label.tau} for invisible), rate, and
    successor term. Multiple identical entries are meaningful (their
    exponential rates add up in the Markovian interpretation).

    An {!engine} memoizes the derivation per hash-consed term id: once the
    transitions of a subterm have been derived, every [Par] context that
    reaches the same subterm reuses them instead of recomputing the whole
    derivation tree. The memo is write-once per term and lives as long as
    the engine — create one engine per state-space exploration.

    {!derive} is safe to call from several domains at once: memo accesses
    are serialized on a per-engine mutex and the hit/miss counters are
    atomic (concurrent misses on the same term may both recompute it — the
    derivation is pure, so both land on the same answer).

    For the parallel state-space builder, a {!shard} gives one worker a
    lock-free private view: lookups consult a local table first, then the
    parent memo without taking the lock. That read is only safe while the
    parent memo is frozen — i.e. between {!merge_shard} calls no domain may
    write the engine (call {!derive} on it, or merge another shard). The
    level-synchronous builder guarantees this by merging all shards from
    the coordinating domain between rounds. *)

exception Sync_error of { action : string; message : string }
(** Raised when a synchronization on [action] is ill-rated (e.g. two active
    participants). *)

type engine

val make : Term.defs -> engine
(** A fresh engine (empty memo) for the given constant definitions. Its
    memo table, like a {!shard}'s, starts at 16 buckets and grows with
    use. *)

val derive : engine -> Term.t -> (Label.t * Rate.t * Term.t) list
(** Memoized SOS derivation. Thread-safe (serialized on the engine memo). *)

type stats = { hits : int; misses : int }

val stats : engine -> stats
(** Memo hits (derivations answered from the table) and misses (derivations
    actually computed) since the engine was created; a routed term (see
    {!shard}) counts in its target's engine only. Read atomically —
    consistent even while other domains derive. After {!merge_shard},
    includes the merged shards' counts. *)

type shard

val shard : ?route:(Term.t -> bool) * shard -> engine -> shard
(** A single-domain worker view of [engine]: derivations answered from a
    private table or the (frozen) parent memo, new results buffered
    locally until {!merge_shard}.

    With [~route:(shared, target)], a term missing from both tables for
    which [shared] holds is derived through [target] instead — answered
    from, or stored in, [target]'s tables, not this shard's. The caller
    guarantees that [target]'s definitions derive every such term (and,
    recursively, its subterms) exactly as this engine's would; [target]
    must live on the same domain. A featured build routes the terms no
    configuration difference can reach to one shared shard. *)

val derive_in : shard -> Term.t -> (Label.t * Rate.t * Term.t) list
(** SOS derivation of a state through the shard, for an explorer that
    derives each state once: the state is looked up in the shard's
    tables (and routed like any term), but its own derivation is not
    stored — deriving it again counts a second miss. Its subterms are
    memoized as by {!derive}. Not thread-safe — one domain per shard. *)

val shard_stats : shard -> stats
(** Hits/misses accumulated by this shard since creation or the last
    {!merge_shard}. *)

val merge_shard : shard -> unit
(** Fold the shard's buffered derivations and counters back into the
    parent engine (first writer wins per term — the derivation is pure, so
    duplicates are identical) and reset the shard. Call from a single
    domain while no worker is deriving. *)
