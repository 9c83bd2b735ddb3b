(** Span-based tracer producing a nested wall-clock timing tree.

    A span is opened with {!with_span} around a pipeline stage
    ("adl.parse", "lts.build", "ctmc.solve", …) and may carry attributes
    (state counts, iteration counts). Spans nest lexically: a span opened
    while another is active on the same domain becomes its child, so one
    [dpma assess --trace] run yields a tree mirroring the methodology's
    incremental pipeline.

    Tracing is off by default; {!with_span} then costs one atomic load and
    a closure call. When enabled, each domain keeps its own span stack
    (domain-local state, no locking on the hot path); spans completed by
    pool worker domains appear as additional roots. The number of retained
    roots is capped — see {!dropped} — so sweep-heavy runs cannot hoard
    memory; the cap is reported, never silent. *)

type attr = Int of int | Float of float | Str of string
(** Attribute values attached to spans. *)

val set_enabled : bool -> unit
(** Turn span recording on or off process-wide. *)

val enabled : unit -> bool
(** Current recording state. *)

type span = {
  name : string;
  attrs : (string * attr) list;
  start_s : float;  (** {!Clock.now_s} at open *)
  dur_s : float;  (** wall-clock duration in seconds *)
  children : span list;  (** completed sub-spans, in completion order *)
}

val with_span : string -> ?attrs:(string * attr) list -> (unit -> 'a) -> 'a
(** [with_span name f] runs [f ()]; when tracing is enabled the elapsed
    time is recorded as a span named [name], nested under the innermost
    active span of the calling domain. The span is closed even when [f]
    raises (the exception is re-raised). When tracing is disabled this is
    [f ()]. *)

val add_attr : string -> attr -> unit
(** Append an attribute to the innermost span open on the calling
    domain, for a figure known only once the span's work is done. A
    no-op when tracing is disabled or no span is open. *)

val roots : unit -> span list
(** Completed top-level spans, in ascending start time. *)

val dropped : unit -> int
(** Number of root spans discarded after the retention cap (10,000 roots)
    was reached. *)

val reset : unit -> unit
(** Forget all completed spans and the dropped count. *)

val pp_text : Format.formatter -> unit -> unit
(** Indented tree of {!roots}: one line per span with its duration and
    attributes. *)

val to_json : unit -> Json.t
(** The trace as a JSON object — the stable [dpma.trace/1] schema
    documented in [docs/OBSERVABILITY.md]. *)
