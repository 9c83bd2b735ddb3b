(** Featured labelled transition systems: one state-space build shared by
    a whole family of configurations, with per-configuration projection.

    A family is an array of specifications (see [Dpma_pa.Feature]) that
    differ in a few constant definitions — DPM timeout values, awake
    periods, buffer bounds. {!build_family} explores the {e union} state
    space once, through the same {!Explore} engine as {!Lts.build}, seeded
    with every configuration's initial term and deriving through
    [Dpma_pa.Feature] shards: states are numbered in frontier-merge
    order, so the featured system — states, edge order, and guards — is
    bit-identical for any job count. Each transition carries an interned
    {e feature guard}: the set of configuration indices under which the
    transition exists from that state, interned in merge order into the
    engine's guard column. A one-member family is [Lts.build] with every
    guard {!Guard.all}.

    {!project} slices one configuration's LTS back out of the shared CSR
    without re-deriving anything: a FIFO traversal from that
    configuration's initial state following only the edges whose guard
    admits the configuration, numbering states in discovery order. That
    traversal reproduces the level-synchronous numbering of {!Lts.build},
    and the derivation layer guarantees that the guard-filtered edge list
    of every shared state equals the configuration's own SOS derivation
    (same multiset, same order) — so the projected LTS is bit-identical
    to [Lts.of_spec] on the member specification: same state count, same
    CSR arrays, same rates. The family differential tests assert exactly
    this.

    Guards over-approximate on {e insensitive} states (states whose
    derivation cannot observe any configuration difference get the
    all-configurations guard even if only some configurations reach
    them); the projection traversal never visits a state unreachable
    under its configuration, so the over-approximation is invisible. *)

(** Interned feature guards: packed bitsets over the configuration
    indices (63 usable bits per word), hash-consed into small integer
    ids by payload content. Id {!Guard.all} always denotes the full
    configuration set. Interning costs O(words) — a 1024-configuration
    family pays 17 words per distinct guard — and the observable API
    (sorted-input [intern], sorted [configs], [mem]) is that of the
    sorted-index-array representation. *)
module Guard : sig
  type table

  val create : nconfigs:int -> table
  (** A fresh table for [nconfigs] configurations, with {!all} already
      interned. *)

  val all : int
  (** The guard id of the full configuration set (always [0]). *)

  val intern : table -> int array -> int
  (** Intern a sorted array of distinct configuration indices, packed
      into a bitset payload. Content equality: interning equal sets
      returns equal ids regardless of interning order. The input array
      is not retained. Raises [Invalid_argument] if the input is out of
      range or not strictly sorted (checked on every call). *)

  val mem : table -> int -> int -> bool
  (** [mem tbl g c]: does guard [g] admit configuration [c]? One bit
      test. *)

  val configs : table -> int -> int array
  (** The sorted configuration set of a guard id (freshly unpacked). *)

  val cardinal : table -> int -> int
  (** Number of configurations a guard admits (popcount, no
      materialized {!configs} array). *)
end

type t = private {
  nconfigs : int;
  num_states : int;  (** union states *)
  init : int array;  (** initial state of each configuration *)
  row : int array;  (** CSR row offsets, length [num_states + 1] *)
  lab : int array;  (** edge label ids *)
  tgt : int array;  (** edge target states *)
  rate_kind : int array;
      (** 1 = exponential, 2 = immediate, 3 = passive (as {!Lts.t}) *)
  rate_val : float array;
  rate_prio : int array;
  guard : int array;  (** interned guard id per edge *)
  guards : Guard.table;
  term : int -> Dpma_pa.Term.t;
      (** the state term of a union id, read from the engine's segmented
          term store *)
}

type family_stats = {
  build : Lts.build_stats;  (** the exploration engine's figures *)
  guard_count : int;  (** distinct interned guards *)
  guard_words : int;  (** total bitset payload words in the guard table *)
}

val build_family :
  ?max_states:int ->
  ?jobs:int ->
  ?par_threshold:int ->
  ?spill_dir:string ->
  ?max_resident_bytes:int ->
  ?seg_bits:int ->
  Dpma_pa.Term.spec array ->
  t * family_stats
(** Explore the union state space of the family once. Parameters are
    the engine's, as for {!Lts.build} ([max_states], default 500_000,
    bounds the {e union} state count; raises {!Lts.Too_many_states}
    beyond it). Deterministic for any [jobs]/[par_threshold], spilling
    included. Polls the ambient {!Dpma_util.Guard} between BFS rounds
    (phase ["family.build"], partial progress led by ["configs"]).
    Raises [Invalid_argument] on an empty family. *)

val num_transitions : t -> int

val project : t -> int -> Lts.t
(** [project fam c] slices configuration [c]'s LTS out of the shared
    CSR — bit-identical to [Lts.of_spec] on the member specification (see
    the module preamble). A state's edges are one contiguous run per
    derivation group and the groups are disjoint, so each visited state
    costs one {!Guard.mem} per run up to the one admitting [c], plus the
    copy of that run; no SOS derivation. The member's CSR arrays are
    written directly (a numbering pass, then a copy pass); the only
    union-sized allocation is one state map. Safe to call concurrently
    from several domains. *)

val project_all : ?jobs:int -> t -> Lts.t array
(** Every configuration's projection ([project fam c] for each [c], in
    order), dealt to [jobs] domains (default 1: a second domain costs
    more than it saves on the families measured). Before the members it builds one
    run index: for each union state with more than one guard run, the
    start of every configuration's run (one word per configuration,
    filled by walking each run's guard bits once; at most [2^22] words,
    states past that keep the run scan). A member then finds its run in
    O(1) and costs O(its own states and edges): each worker reuses one
    state map, reset through the member's own states. The index is
    dropped when the call returns. Also records the family sharing ratio
    (union states / summed projected states) in the metrics registry. *)
