(** Battery-lifetime analysis for the rpc appliance.

    The paper's title subject is *battery-powered* appliances, and its
    energy measure (state rewards 2/3/2/0 on the server's idle, busy,
    awaking and sleeping states) is a power draw. This extension makes the
    battery explicit: the server emits discrete energy quanta at a rate
    proportional to its current power state, and a battery component
    counts them down from a given capacity. The expected battery lifetime
    is then a *mean first-passage time* into the battery-empty state, and
    "how much longer does the appliance live with the DPM?" becomes a
    single number.

    The quantum abstraction keeps the model a CTMC: with [quantum_rate]
    quanta per millisecond per power unit, a power draw of 2 becomes an
    exponential emission at rate [2 * quantum_rate], and a capacity of
    [c] quanta holds [c / quantum_rate] power-unit-milliseconds of energy.
    Larger capacities sharpen the (Erlang-like) lifetime distribution at
    the cost of state-space size. *)

type params = {
  rpc : Rpc.params;
  capacity : int;  (** battery capacity in energy quanta *)
  quantum_rate : float;  (** quanta per ms per power unit *)
}

val default_params : params
(** rpc defaults, capacity 40, one quantum per power-unit-millisecond —
    about 20 ms of always-idle life, enough to show the DPM effect while
    keeping the chain small. *)

val archi : ?policy:Rpc.policy -> params -> Dpma_adl.Ast.archi
(** The revised rpc architecture (Markovian view, monitors on) extended
    with per-state power emission on the server and a battery instance
    [BAT] wired to it. *)

val empty_monitor : string
(** The action enabled exactly in battery-empty states
    (["BAT.monitor_battery_empty"]). *)

type lifetime = {
  with_dpm : float;
  without_dpm : float;
  extension : float;  (** [with_dpm /. without_dpm - 1] *)
}

val expected_lifetime : ?policy:Rpc.policy -> params -> lifetime
(** Mean first-passage time (ms) to battery exhaustion from a cold start,
    with the DPM active and with its commands restricted. *)

val lifetime_sweep :
  ?policy:Rpc.policy ->
  ?jobs:int ->
  params ->
  timeouts:float list ->
  (float * lifetime) list
(** [expected_lifetime] across DPM shutdown timeouts. The sweep points run
    in parallel on [jobs] domains; the DPM-less chain does not depend on
    the timeout, so it is solved once and shared across the sweep. *)
