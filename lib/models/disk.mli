(** A third case study: the laptop disk drive, the classic benchmark of
    the DPM literature the paper builds on (Benini–Bogliolo–De Micheli's
    survey, the paper's [1]).

    Requests arrive at a bounded queue; the disk serves them one at a
    time. When idle, the disk can be spun down by a timeout DPM; spinning
    down takes time, sleeping draws little power, and the next request
    pays a long spin-up penalty — the canonical break-even tradeoff.

    Unlike the rpc and streaming models (built programmatically), this
    model is written in the concrete ADL text and parsed — the source,
    with the parameters spliced in, is what {!source} returns — so it
    doubles as an end-to-end exercise of the front end and as a template
    for writing new power-managed appliances. The queue uses the language's
    data parameters and guards. *)

type params = {
  interarrival_mean : float;  (** request interarrival, ms *)
  service_mean : float;  (** disk service time, ms *)
  queue_capacity : int;
  spindown_mean : float;  (** idle -> sleep transition, ms *)
  spinup_mean : float;  (** sleep -> active transition, ms *)
  dpm_timeout_mean : float;  (** DPM shutdown timeout, ms *)
  power_active : float;
  power_idle : float;
  power_seek : float;  (** spin-up/down power *)
  power_sleep : float;
  monitor_rate : float;
}

val default_params : params
(** Interarrival 30 s — disk workloads have long idle gaps, and the
    spin-up penalty puts the break-even sleep near 10 s for this power
    profile, so spinning down pays off only on sparse workloads.
    Service 12 ms, queue 4, spin-down 300 ms,
    spin-up 1600 ms, and a synthetic 2.2/0.9/4.4/0.2 power profile
    (mobile-disk numbers of the DPM literature, in arbitrary units). *)

val source : params -> string
(** The architectural description in concrete syntax. *)

val archi : params -> Dpma_adl.Ast.archi
val elaborate : params -> Dpma_adl.Elaborate.elaborated

val high_actions : string list
val low_actions : string list

type metrics = {
  throughput : float;  (** completions per ms *)
  energy_rate : float;
  energy_per_request : float;
  drop_ratio : float;  (** queue-overflow drops per submitted request *)
  sleep_fraction : float;
}

val compare_dpm : params -> metrics * metrics
(** (with DPM, without DPM) at the given parameters. *)
