(** Reporting configuration and emission: the bridge between the
    [--metrics]/[--trace] command-line flags (or the [DPMA_METRICS] /
    [DPMA_TRACE] environment variables) and the {!Metrics} registry /
    {!Trace} collector.

    Metrics are always {e recorded}; this module only decides whether and
    how they are {e printed}. Reports go to the channel the caller passes
    (the executables use stderr, keeping stdout machine-parseable). *)

type format = Text | Json
(** Report rendering: a human-readable table, or one JSON document
    following the [dpma.obs/1] schema of [docs/OBSERVABILITY.md]. *)

val configure : ?metrics:format option -> ?trace:bool -> unit -> unit
(** Set the reporting configuration. [metrics] enables (or, with [None],
    disables) the metrics report; [trace] turns span recording on or off
    (forwarded to {!Trace.set_enabled}). Omitted arguments leave the
    corresponding setting unchanged. *)

val init_from_env : unit -> unit
(** Read [DPMA_METRICS] ([0]/empty: off; [json]: JSON; anything else,
    e.g. [1] or [text]: text) and [DPMA_TRACE] (set and non-[0]: on), and
    {!configure} accordingly. Variables that are unset leave the current
    configuration untouched, so explicit flags win when applied after. *)

val to_json : unit -> Json.t
(** The combined report as one [dpma.obs/1] JSON document: metrics array
    plus, when tracing is on, the trace object. *)

val emit : out_channel -> unit
(** Write the configured report: the metrics table or JSON document when
    metrics reporting is enabled, and the span tree when tracing is on
    (included in the JSON document in JSON mode). Does nothing when both
    are disabled — safe to call unconditionally, e.g. from [at_exit]. *)
