(** Labelled transition systems, stored in compressed sparse row form.

    An LTS is the common semantic object of the methodology: the functional
    models are plain LTSs, the Markovian models are LTSs whose transitions
    carry {!Dpma_pa.Rate.t} annotations, and the general models reuse the
    same structure with distributions attached per action by the
    simulator.

    Labels are interned integers ({!Dpma_pa.Label.t}, [tau = 0]), and the
    transition relation lives in flat arrays: edges of state [s] occupy the
    index range [row.(s) .. row.(s+1) - 1] of [lab] (label ids), [tgt]
    (target states), and the packed rate arrays. Hot loops (partition
    refinement, CTMC extraction, simulation stepping) index these arrays
    directly — the simulator packs each visited state's edge range into a
    step record of label ids and targets, and keys its clocks by label id.
    The CSR is the only representation: every producer writes it, either
    through the {!Explore} engine or through the {!writer} below. *)

type label = Dpma_pa.Label.t
(** Interned label id; [tau] is [0]. *)

val tau : label

val obs : string -> label
(** Intern an observable action name as a label. *)

val label_name : label -> string
(** Printable name ("tau" for {!tau}). *)

val is_tau : label -> bool

val pp_label : Format.formatter -> label -> unit

type t = private {
  init : int;
  num_states : int;
  state_name : int -> string;
      (** printable description of a state (used in diagnostics) *)
  row : int array;  (** edge index range of state [s]: [row.(s)] inclusive
                        to [row.(s+1)] exclusive; length [num_states + 1] *)
  lab : int array;  (** edge label ids *)
  tgt : int array;  (** edge target states *)
  rate_kind : int array;
      (** 0 = unrated, 1 = exponential, 2 = immediate, 3 = passive *)
  rate_val : float array;
      (** exponential rate, immediate weight, or passive weight *)
  rate_prio : int array;  (** immediate priority (0 otherwise) *)
}

exception Too_many_states of int

val of_csr :
  init:int ->
  state_name:(int -> string) ->
  row:int array ->
  lab:int array ->
  tgt:int array ->
  rate_kind:int array ->
  rate_val:float array ->
  rate_prio:int array ->
  t
(** Wrap already-packed CSR arrays (taken by reference, not copied) in
    an LTS of [Array.length row - 1] states. The arrays must follow the
    encoding of {!t}; only their lengths are checked ([Invalid_argument]
    when an edge array's length is not [row.(num_states)]). *)

val equal_fields :
  columns:bool -> rates:[ `All | `Timed | `Untimed ] -> t -> t -> bool
(** The one field-wise CSR comparison. With [columns]: [init], [row]
    (hence [num_states]), [lab], [tgt], [rate_kind] and [rate_prio]
    element-wise. Then [rate_val], by exact bit pattern ([0.0] and
    [-0.0] differ), on the edges [rates] selects: all of them, the
    timed (exponential, kind 1) ones or the others. [state_name] is
    never compared. {!equal} and the CTMC plan keys
    ([Ctmc.same_plan], [Ctmc.same_rates]) are its instances. *)

val equal : t -> t -> bool
(** CSR equality, [equal_fields ~columns:true ~rates:`All]. Every
    analysis of two equal LTSs reads identical numbers. *)

val rate_of : t -> int -> Dpma_pa.Rate.t option
(** Rate annotation of the edge at the given flat index. *)

(** {1 Writing an LTS}

    The one CSR writer of the derived LTSs ({!quotient}, {!copy_states},
    {!hide_all_but}, {!restrict}, [Bisim.determinize], [Tau.saturate]).
    States are written in id order: a state's edges are appended, then
    the state is closed. *)

type writer

val writer : ?states:int -> int -> writer
(** A writer for an LTS of about the given number of edges and
    [states] states (capacity hints; the arrays grow past them, and
    [finish] returns an array that was filled exactly without a
    copy). *)

val add_edge : writer -> label -> int -> unit
(** [add_edge w label target] appends an unrated edge to the open
    state. *)

val close_state : ?reverse:bool -> writer -> unit
(** Close the open state; the next edge opens the next state. With
    [~reverse:true] its edges are stored in the reverse of their append
    order. *)

val finish : writer -> init:int -> state_name:(int -> string) -> t
(** The LTS of the closed states. The writer must not be used after. *)

type build_stats = Explore.stats = {
  jobs : int;
  rounds : int;
  peak_frontier : int;
  merge_seconds : float;
  segments : int;
  segment_bytes_peak : int;
  spilled_segments : int;
  spilled_bytes : int;
  spill_write_seconds : float;
  build_seconds : float;
}
(** The exploration engine's statistics (see {!Explore.stats}). *)

val build :
  ?max_states:int ->
  ?jobs:int ->
  ?par_threshold:int ->
  ?spill_dir:string ->
  ?max_resident_bytes:int ->
  ?seg_bits:int ->
  Dpma_pa.Term.spec ->
  t * build_stats
(** Enumerate the reachable states of a process-algebra specification:
    the {!Explore} engine over a memoized SOS engine, each worker
    deriving successors through a private {!Dpma_pa.Semantics.shard}.
    State numbering, edge order, and every CSR array are bit-identical to
    the sequential build for any job count, spilled or not. Raises
    {!Too_many_states} beyond [max_states] (default 500_000). Transition
    rates are preserved.

    [jobs], [par_threshold] and [spill_dir]/[max_resident_bytes]/[seg_bits]
    are the engine's ({!Explore.run}); omitted spill knobs fall back to
    {!Segstore.set_defaults}.

    The build polls the ambient {!Dpma_util.Guard} between BFS rounds
    (phase ["lts.build"]); a tripped budget aborts with
    {!Dpma_util.Guard.Resource_exceeded} carrying the states,
    transitions, and rounds explored so far. *)

val of_spec :
  ?max_states:int -> ?jobs:int -> ?par_threshold:int -> ?spill_dir:string ->
  ?max_resident_bytes:int -> ?seg_bits:int -> Dpma_pa.Term.spec -> t
(** [build] without the statistics. *)

val num_transitions : t -> int

val labels : t -> label list
(** All distinct transition labels, [tau] first if present, then
    observable labels alphabetically by name (id order would depend on
    interning order). *)

val enabled : t -> int -> label list
(** Distinct labels enabled in a state. *)

val enables_label : t -> int -> label -> bool
(** Does the state have an outgoing transition with that label id? *)

val deadlock_states : t -> int list

val reachable_from : t -> int -> bool array

val disjoint_union : t -> t -> t * int * int
(** [disjoint_union a b] is the side-by-side composition; returns the LTS
    (whose [init] is [a]'s) and the translated initial states of [a] and
    [b]. *)

val quotient : t -> int array -> t
(** [quotient lts block] merges states mapped to the same block id;
    transitions are deduplicated by (label, target) keeping the first
    rate annotation. A block's edges come in reverse order of discovery
    over its states in state order; a block is named after its smallest
    state. The result's init is [block.(lts.init)]'s class. *)

val copy_states : t -> int array -> int array -> t
(** [copy_states lts states map]: state [i] of the result carries the
    edges of state [states.(i)] of [lts], in order and with their rates,
    each target [t] renamed [map.(t)], and is named after it. The
    initial state is [map.(lts.init)]. *)

val hide_all_but : t -> keep:(string -> bool) -> t
(** Turn every observable transition whose name fails [keep] into [tau].
    [keep] is called once per distinct observable label, not per edge.
    The result shares every array but [lab] with the input. *)

val restrict : t -> remove:(string -> bool) -> t
(** Delete every observable transition whose name satisfies [remove].
    [remove] is called once per distinct observable label, not per
    edge. When no edge is deleted, the result shares every array but
    [lab] with the input. *)

val pp_stats : Format.formatter -> t -> unit

val quotient_by_representative : t -> int array -> t
(** Like {!quotient}, but each class inherits the full transition multiset
    of one representative state (duplicates and rates preserved). This is
    the correct quotient for ordinary lumpability, where parallel
    transitions into the same class must keep their cumulative rate. The
    partition must be at least as fine as Markovian bisimilarity for the
    result to be stochastically equivalent. *)

val pp_dot : ?max_states:int -> Format.formatter -> t -> unit
(** Graphviz rendering: states as nodes (initial state doubly circled),
    transitions as labelled edges (rates appended when present). Refuses
    LTSs above [max_states] (default 2000) — dot layouts beyond that are
    unreadable anyway. *)
