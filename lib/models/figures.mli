(** Regeneration of every figure of the paper's evaluation.

    Each [figN_*] function sweeps the same parameter the paper sweeps and
    returns the same series the paper plots (see EXPERIMENTS.md for the
    paper-vs-measured record). The [pp_*] printers render the series as
    aligned text tables, one row per sweep point.

    Every sweep runs its points in parallel on [jobs] domains (default
    {!Dpma_util.Pool.default_jobs}); the returned rows — including the
    simulation statistics — are bit-identical for every job count. *)

(** Section 3: noninterference verdicts for the three functional models. *)
type sec3 = {
  simplified_rpc : Dpma_core.Noninterference.verdict;  (** expected: Insecure *)
  revised_rpc : Dpma_core.Noninterference.verdict;  (** expected: Secure *)
  streaming : Dpma_core.Noninterference.verdict;  (** expected: Secure *)
}

val sec3_noninterference : ?jobs:int -> unit -> sec3
val pp_sec3 : Format.formatter -> sec3 -> unit

(** One sweep point of the rpc comparison (Fig. 3, both halves; Fig. 7). *)
type rpc_row = {
  shutdown_timeout : float;
  with_dpm : Rpc.metrics;
  without_dpm : Rpc.metrics;
}

val default_rpc_timeouts : float list
(** 0.1 … 25 ms, the x-axis of Fig. 3. *)

val fig3_markov : ?jobs:int -> ?timeouts:float list -> unit -> rpc_row list
(** Left half of Fig. 3: CTMC solution. *)

val fig3_general :
  ?jobs:int ->
  ?timeouts:float list ->
  ?sim:Dpma_core.General.sim_params ->
  unit ->
  rpc_row list
(** Right half of Fig. 3: simulation of the deterministic/normal model. *)

val pp_rpc_rows : title:string -> Format.formatter -> rpc_row list -> unit

(** Fig. 5: validation of the general rpc model — general model fed
    exponential distributions vs the Markovian solution, with confidence
    intervals (30 runs, 90%). The compared measure is the server energy
    consumption rate, as in the paper. *)
type validation_row = {
  v_timeout : float;
  markov_energy : float;
  sim_energy : Dpma_util.Stats.summary;
}

val fig5_validation :
  ?jobs:int ->
  ?timeouts:float list ->
  ?sim:Dpma_core.General.sim_params ->
  unit ->
  validation_row list

(** One sweep point of the streaming comparison (Fig. 4, Fig. 6, Fig. 8). *)
type streaming_row = {
  awake_period : float;
  s_with_dpm : Streaming.metrics;
  s_without_dpm : Streaming.metrics;
}

val default_awake_periods : float list
(** 1 … 800 ms, the x-axis of Figs. 4 and 6. *)

val fig4_markov : ?jobs:int -> ?awake_periods:float list -> unit -> streaming_row list

val fig6_general :
  ?jobs:int ->
  ?awake_periods:float list ->
  ?sim:Dpma_core.General.sim_params ->
  unit ->
  streaming_row list

val pp_streaming_rows :
  title:string -> Format.formatter -> streaming_row list -> unit

(** {2 Ablations} (not in the paper; design-choice studies called out in
    DESIGN.md) *)

(** The paper's Sect. 2.1 describes a trivial and a timeout policy and its
    introduction surveys predictive schemes; the paper only evaluates the
    timeout policy. This ablation compares all three classes. *)
type policy_row = {
  p_timeout : float;
  timeout_policy : Rpc.metrics;
  trivial_policy : Rpc.metrics;
  predictive_policy : Rpc.metrics;
}

val ablation_rpc_policy : ?jobs:int -> ?timeouts:float list -> unit -> policy_row list

(** Ordinary lumpability as a CTMC pre-reduction: states, solve time and
    measure agreement with the unlumped solution. *)
type lumping_row = {
  l_model : string;
  full_states : int;
  lumped_states : int;
  max_relative_error : float;  (** across all measures *)
}

val ablation_lumping : ?jobs:int -> unit -> lumping_row list

(** Distribution-family ablation: rpc throughput (with DPM) when the
    deterministic delays are replaced by k-stage Erlangs — showing the
    bimodal knee of Fig. 3 (right) emerge as variability shrinks from
    exponential (k = 1) toward deterministic. *)
type family_row = {
  f_timeout : float;
  exponential_thr : float;
  erlang5_thr : float;
  erlang20_thr : float;
  deterministic_thr : float;
}

val ablation_distribution_family :
  ?jobs:int ->
  ?timeouts:float list ->
  ?sim:Dpma_core.General.sim_params ->
  unit ->
  family_row list

(** {2 The figure suite}

    The whole evaluation as one list of named sections, printed in the
    order of {!section_names}: the Sect. 3 verdicts, Figs. 3–8, the
    ablations, battery lifetime and the disk break-even sweep. Both the
    [dpma figures] command and the benchmark harness print through it. *)

(** Sweep sizes: [Tiny] is sec3 plus one Markovian and one simulated
    Fig. 3 point (the other sections are empty); [Quick] shrinks the
    sweeps and simulations; [Full] runs the paper's sweeps. *)
type size = Tiny | Quick | Full

val section_names : string list
(** ["sec3"], ["fig3"] … ["fig8"], ["ablations"], ["battery"], ["disk"]. *)

val print :
  ?on_timing:(string -> float -> unit) ->
  ?only:string list ->
  size ->
  Format.formatter ->
  unit
(** [print size ppf] prints the sections named in [only] (default: all)
    in suite order, each table followed by a blank line. Figs. 7 and 8
    reuse the rows of Figs. 3, 4 and 6, so no sweep runs twice.
    [on_timing name seconds] receives the wall-clock time of each sweep
    as it finishes (["sec3"], ["fig3-markov"], ["fig3-general"],
    ["fig4"], ["fig5"], ["fig6"], ["ablations"], ["battery"],
    ["disk"]). *)
