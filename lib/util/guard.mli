(** Per-run resource guards with graceful degradation.

    A guard carries an optional wall-clock budget and an optional
    resident-memory budget for one run. Long-running phases (the
    level-synchronous LTS builders, partition refinement) {!poll} the
    ambient guard between rounds; a violated budget aborts the phase by
    raising {!Resource_exceeded} with a structured {!trip} carrying the
    phase's partial progress — the caller renders it as a machine-readable
    "degraded" verdict and exits cleanly, instead of the process being
    OOM-killed or silently truncating results.

    Polling reads [Gc.quick_stat] (major-heap words) and the monotonic
    clock of {!Dpma_obs.Clock}; both are cheap enough to take every round.
    Every poll increments [guard.polls]; every violation increments
    [guard.trips] (see docs/OBSERVABILITY.md). *)

type resource =
  | Wall_clock
  | Resident_memory
  | Convergence
      (** not a guard budget: an iterative solver reached its sweep cap
          ([limit] is its tolerance, [actual] its last change), raised
          by [Sparse.fixed_point] through {!convergence_trip} *)

type trip = {
  resource : resource;  (** which budget was violated *)
  phase : string;  (** the phase that was polling, e.g. ["lts.build"] *)
  limit : float;  (** the budget: seconds, or bytes *)
  actual : float;  (** the observed value that exceeded it *)
  partial : (string * float) list;
      (** partial progress of the aborted phase, e.g. states explored *)
}

exception Resource_exceeded of trip

type t

val create : ?max_seconds:float -> ?max_resident_bytes:int -> unit -> t
(** A guard whose wall clock starts now. Omitted budgets are unlimited.
    Raises [Invalid_argument] on negative or non-finite budgets. *)

val install : t -> unit
(** Make [g] the ambient guard of the process. One guard per run: a
    second [install] replaces the first. *)

val installed : unit -> bool

val with_guard : t -> (unit -> 'a) -> 'a
(** [install], run, then remove the ambient guard (also on exception). *)

val poll : ?partial:(unit -> (string * float) list) -> phase:string -> unit -> unit
(** Check the ambient guard, if any. On a violated budget, clears the
    guard and raises {!Resource_exceeded} with [partial ()] attached.
    No-op (and no metrics) when no guard is installed. *)

val convergence_trip :
  phase:string -> iterations:int -> residual:float -> tolerance:float -> trip
(** The degraded verdict of a solver loop that reached its sweep cap:
    resource {!Convergence}, [limit] the tolerance, [actual] the last
    change, [partial] the sweeps performed. *)

val verdict_json : trip -> Dpma_obs.Json.t
(** The machine-readable degraded verdict (schema [dpma.degraded/1]):
    [{"schema", "verdict": "degraded", "resource", "phase", "limit",
    "actual", "partial": {..}}]. *)

val verdict_line : trip -> string
(** {!verdict_json} rendered compactly on one line. *)

val pp_trip : Format.formatter -> trip -> unit
(** Human-readable one-line description of a trip. *)
