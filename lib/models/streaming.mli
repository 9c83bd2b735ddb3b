(** The streaming video case study (paper Sect. 2.2, 3.2, 4.2, 5.3).

    A video server [S] pushes frames through an access point [AP] (internal
    buffer), a half-duplex radio channel [RSC], and a power-manageable
    network interface card [NIC] into the client-side buffer [B]; the
    non-blocking client [C] fetches a frame per rendering period, *missing*
    when [B] is empty; frames are *lost* on buffer-full events at [AP] or
    [B] (and in the lossy channel). The MAC-level PSP power management is
    modeled, as in the paper, by an external [DPM] that learns when the AP
    buffer drains empty, then shuts the NIC down, and wakes it up
    periodically (the *awake period* is the swept parameter). *)

type params = {
  ap_buffer_size : int;  (** 10 *)
  client_buffer_size : int;  (** 10 *)
  service_mean : float;  (** server frame period, 67 ms *)
  propagation_mean : float;  (** radio propagation, 4 ms *)
  propagation_stddev : float;  (** sigma for the general model *)
  loss_probability : float;  (** channel loss, 0.02 *)
  check_mean : float;  (** NIC buffer-check time, 5 ms *)
  nic_awake_mean : float;  (** NIC doze->awake transition, 15 ms *)
  initial_delay_mean : float;  (** client startup delay, 684 ms *)
  render_mean : float;  (** client rendering period, 67 ms *)
  shutdown_mean : float;  (** DPM shutdown delay, 5 ms *)
  awake_period_mean : float;  (** DPM wakeup period — swept 0..800 ms *)
  power_awake : float;  (** NIC power while awake/receiving (per ms) *)
  power_doze : float;  (** NIC power while dozing *)
  monitor_rate : float;
}

val default_params : params

type mode = Markovian | General

val archi : ?mode:mode -> ?monitors:bool -> params -> Dpma_adl.Ast.archi

type scaled_params = {
  stations : int;  (** number of client stations served round-robin *)
  radio_channel : bool;
      (** give each station its own radio channel (a ~x4 state factor per
          station that leaves the DPM behavior untouched) *)
  station : params;  (** per-station parameters *)
}

val default_scaled_params : scaled_params
(** The configuration of [examples/specs/streaming_scaled.aem],
    calibrated to cross the 500k-state mark (the state count grows
    exponentially with [stations] and roughly linearly in each buffer
    capacity). *)

val scaled_archi :
  ?mode:mode -> ?monitors:bool -> scaled_params -> Dpma_adl.Ast.archi
(** The N-station scaling model: one generated video server with a
    round-robin output port per station ([send_frame_1] ..
    [send_frame_N] — UNI ports attach exactly once), feeding [N]
    replicas of the paper's station pipeline ([APi] → [RSCi] → [NICi] →
    [Bi] ← [Ci], each with its own [DPMi]). [monitors] defaults to
    [false]: the scaling model exists to stress state-space generation,
    and monitor self-loops only add transitions. *)

val scaled_spec :
  ?mode:mode -> ?monitors:bool -> scaled_params -> Dpma_pa.Term.spec
(** [scaled_archi] elaborated to a process-algebra specification. *)

val elaborate :
  ?mode:mode -> ?monitors:bool -> params -> Dpma_adl.Elaborate.elaborated
(** Memoized per configuration, exactly like {!Rpc.elaborate}
    (thread-safe; sweeps run on the {!Dpma_util.Pool} domain pool). *)

val high_actions : string list
(** DPM shutdown and wakeup channels. *)

val low_actions : string list
(** Client actions: frame fetches, misses, rendering, startup. *)

val measures : params -> Dpma_measures.Measure.t list
(** energy (NIC state rewards), frames (forwarded-frame throughput), takes,
    misses, sent, lost_ap, lost_b — raw measures from which the paper's
    four metrics derive. *)

type metrics = {
  energy_per_frame : float;  (** NIC energy rate / forwarded-frame rate *)
  loss : float;  (** buffer-full losses per sent frame *)
  miss : float;  (** missed fetches per fetch *)
  quality : float;  (** in-time deliveries per fetch, 1 - miss *)
}

val metrics_of_values : (string * float) list -> metrics

val study : ?mode:mode -> params -> Dpma_core.Pipeline.study
(** The functional phase uses a reduced-capacity model (buffers of 2):
    noninterference is a control-structure property, insensitive to buffer
    capacity, and the reduction keeps the saturated weak-transition
    relation small (see DESIGN.md). *)
