(** An N-node ad hoc network energy model: the million-state scenario.

    A traffic source [SRC] injects packets into a chain of [N] relay
    nodes; every node relays through its downstream neighbor until the
    last hop delivers to the destination [SINK]. Each relay node is the
    paper's station pattern turned into a forwarding hop: a bounded
    relay queue [Qi] (dropping on overflow, announcing its buffer-empty
    condition), a power-manageable NIC [NICi] with the PSP power states
    (awake / forwarding / doze / awaking / checking), and a per-node
    timeout [DPMi] that shuts the NIC down when the queue drains and
    wakes it up periodically. Energy is charged per hop — transmission
    by the forwarding NIC plus reception by the next node — on top of
    the per-state NIC power draw, following the ad hoc network power
    models surveyed in PAPERS.md (Heni/Bouallegue).

    The state count grows exponentially with [nodes] and roughly
    linearly in [queue_size]: the default 3-node configuration
    (examples/specs/adhoc_net.aem) stays small enough for unit tests,
    while the bench's calibrated instance crosses the 2-million-state
    mark and exercises segment spill under a resident-memory budget
    (see bench/main.ml, adhoc study). Markovian throughout — the model
    exists to stress state-space construction, not general
    distributions. *)

type params = {
  nodes : int;  (** relay nodes in the chain *)
  queue_size : int;  (** per-node relay queue capacity *)
  head_queue_size : int option;
      (** first relay's queue capacity (default [queue_size]) — the
          bench's calibration knob: the state count scales roughly
          linearly in it, against exponentially in [nodes] *)
  gen_mean : float;  (** source packet inter-generation mean, ms *)
  nic_awake_mean : float;  (** NIC doze->awake transition, ms *)
  check_mean : float;  (** NIC queue-check time after wakeup, ms *)
  shutdown_mean : float;  (** DPM shutdown delay, ms *)
  awake_period_mean : float;  (** DPM wakeup period, ms *)
  power_awake : float;  (** NIC power while awake/awaking/checking *)
  power_doze : float;  (** NIC power while dozing *)
  energy_tx : float;  (** per-hop transmission energy *)
  energy_rx : float;  (** per-hop reception energy *)
  monitor_rate : float;
}

val default_params : params
(** 3 nodes, queue capacity 2 — the configuration of
    [examples/specs/adhoc_net.aem]. *)

val archi : ?monitors:bool -> params -> Dpma_adl.Ast.archi
(** The chain architecture. [monitors] (default [true]) adds the NIC
    monitor self-loops the energy state-measures hook into; the bench's
    million-state instance turns them off, as they only add
    transitions. Raises [Invalid_argument] on [nodes < 1] or
    [queue_size < 1]. *)

val spec : ?monitors:bool -> params -> Dpma_pa.Term.spec
(** [archi] elaborated to a process-algebra specification. *)

val high_actions : params -> string list
(** Every node's DPM shutdown and wakeup channels. *)
