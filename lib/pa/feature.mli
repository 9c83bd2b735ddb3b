(** Featured SOS derivation: one derivation pass shared by a family of
    closely related specifications (policy configurations).

    A family is an array of {!Term.spec} values — one per configuration —
    that typically differ only in a few constant definitions (a timeout
    rate, a buffer bound). Because terms are hash-consed, two
    configurations whose definition of a constant is structurally equal
    share it physically, and {!make} discovers the sharing automatically:
    a constant is {e affected} when its bodies are not physically equal
    across every configuration, and a term is {e sensitive} when an
    affected constant occurs in its unguarded-call closure (the only part
    of the definitions the SOS derivation of the term can consult).

    {!derive_in} derives a term once per {e equivalence group} of
    configurations instead of once per configuration: insensitive terms
    derive exactly once for the whole family, and sensitive terms group
    the configurations by the bodies of the affected constants in their
    closure. Each group's transition list is bit-identical — same
    multiset, same order — to what {!Semantics.derive} would produce for
    every configuration in the group, so a featured state-space build can
    later be projected to any single configuration without re-deriving
    (see [Dpma_lts.Flts]).

    Configurations under which a term's closure is undefined are omitted
    from every group: such a term cannot be reachable under those
    configurations (each spec validates its own definedness), so the
    omission is invisible to per-configuration projections.

    Concurrency mirrors {!Semantics}: a {!shard} is a single-domain view
    whose lookups fall back on the frozen parent tables lock-free;
    {!merge_shard} folds its buffered results back between rounds. All
    results are pure functions of the frozen spec array, hence identical
    for any worker count. *)

type t
(** A family derivation engine over [N] configurations. *)

val make : Term.spec array -> t
(** Build the family engine: union constant table, affected/sensitive
    analysis, and one {!Semantics.engine} per configuration (each memo
    table starts small). Each sensitive constant's closure key under
    each configuration — the bodies of the affected constants in its
    unguarded closure — is interned once, here, to a small int id, so
    grouping a term compares the int tuple of its sensitive calls' ids.
    Equal tuples hold exactly when the merged closure keys are equal, so
    the groups, their order and their members are those of grouping by
    the keys themselves. Raises [Invalid_argument] on an empty family. *)

val inits : t -> Term.t array
(** The initial term of each configuration, in configuration order. *)

val sos_stats : t -> Semantics.stats
(** Memo hits/misses summed over every configuration's engine. *)

type group = {
  configs : int array;
      (** sorted configuration indices sharing this derivation *)
  steps : (Label.t * Rate.t * Term.t) list;
      (** the shared transition list, in SOS derivation order *)
}

type shard

val shard : t -> shard
(** A single-domain worker view: a private sensitivity memo and one
    {!Semantics.shard} per configuration, created on that
    configuration's first derivation through this shard (a group derives
    under its first configuration only, so only configurations that head
    a group get one, plus configuration 0's). Every other
    configuration's shard routes the insensitive subterms it meets to
    configuration 0's shard (see {!Semantics.shard}): they derive alike
    under every configuration, so a subterm that every group head shares
    is derived once per round and memoized once. Creating a
    {!Semantics.shard} only reads its parent engine, which {!make}
    created, so a worker domain may call this and {!derive_in}
    freely. *)

val derive_in : shard -> Term.t -> group list
(** Derive the term for every configuration at once, grouped. Groups are
    returned in first-configuration order and partition the set of
    configurations under which the term is closed; an insensitive term
    yields a single group containing every configuration (its [configs]
    array is physically shared across calls — do not mutate). Not
    thread-safe: one domain per shard. *)

val merge_shard : shard -> unit
(** Fold the shard's buffered memo entries back into the parent (and,
    for the configurations that created a {!Semantics.shard}, the parent
    {!Semantics.engine}s). Call from a single domain while no worker is
    deriving, exactly like {!Semantics.merge_shard}. *)
