module Parser = Dpma_adl.Parser
module Elaborate = Dpma_adl.Elaborate
module Lts = Dpma_lts.Lts
module Measure = Dpma_measures.Measure
module Markov = Dpma_core.Markov

type params = {
  interarrival_mean : float;
  service_mean : float;
  queue_capacity : int;
  spindown_mean : float;
  spinup_mean : float;
  dpm_timeout_mean : float;
  power_active : float;
  power_idle : float;
  power_seek : float;
  power_sleep : float;
  monitor_rate : float;
}

let default_params =
  {
    interarrival_mean = 30_000.0;
    service_mean = 12.0;
    queue_capacity = 4;
    spindown_mean = 300.0;
    spinup_mean = 1600.0;
    dpm_timeout_mean = 1_000.0;
    power_active = 2.2;
    power_idle = 0.9;
    power_seek = 4.4;
    power_sleep = 0.2;
    monitor_rate = 1e-4;
  }

let fr = Dpma_util.Floatfmt.repr

(* The model in concrete syntax. The generator is open-loop Poisson; the
   queue is a guarded counter that pushes work into the disk whenever the
   disk can take it; the disk mirrors the power-state machine of the DPM
   literature; the DPM is the rpc timeout policy. *)
let source p =
  Printf.sprintf
    {|%% Laptop disk drive with a timeout DPM (see lib/models/disk.mli).
ARCHI_TYPE DISK_DPM(void)

ARCHI_ELEM_TYPES

ELEM_TYPE Generator_Type(void)
BEHAVIOR
Generator(void; void) =
  <submit, exp(%s)> . Generator()
INPUT_INTERACTIONS void
OUTPUT_INTERACTIONS UNI submit

ELEM_TYPE Queue_Type(const integer capacity)
BEHAVIOR
Queue_Start(void; void) = Queue(0);
Queue(integer h; void) =
  choice {
    cond(h < capacity) -> <accept, _> . Queue(h + 1),
    cond(h = capacity) -> <accept, _> . <drop_request, inf(2, 1)> . Queue(capacity),
    cond(h > 0) -> <dispatch, inf(1, 1)> . Queue(h - 1)
  }
INPUT_INTERACTIONS UNI accept
OUTPUT_INTERACTIONS UNI dispatch

ELEM_TYPE Disk_Type(void)
BEHAVIOR
Disk_Idle(void; void) =
  choice {
    <take_request, _> . <notify_busy, inf(2, 1)> . Disk_Active(),
    <receive_shutdown, _> . Disk_SpinningDown(),
    <monitor_disk_idle, exp(%s)> . Disk_Idle()
  };
Disk_Active(void; void) =
  choice {
    <serve_request, exp(%s)> . <complete_request, inf(2, 1)> .
      <notify_idle, inf(2, 1)> . Disk_Idle(),
    <monitor_disk_active, exp(%s)> . Disk_Active()
  };
Disk_SpinningDown(void; void) =
  choice {
    <spun_down, exp(%s)> . Disk_Sleeping(),
    <take_request, _> . <abort_spindown, inf(2, 1)> . Disk_SpinningUp(),
    <monitor_disk_seek, exp(%s)> . Disk_SpinningDown()
  };
Disk_Sleeping(void; void) =
  choice {
    <take_request, _> . Disk_SpinningUp(),
    <monitor_disk_sleep, exp(%s)> . Disk_Sleeping()
  };
Disk_SpinningUp(void; void) =
  choice {
    <spun_up, exp(%s)> . <notify_busy, inf(2, 1)> . Disk_Active(),
    <monitor_disk_seek, exp(%s)> . Disk_SpinningUp()
  }
INPUT_INTERACTIONS UNI take_request;
                       receive_shutdown
OUTPUT_INTERACTIONS UNI notify_busy;
                        notify_idle

ELEM_TYPE DPM_Type(void)
BEHAVIOR
Enabled_DPM(void; void) =
  choice {
    <send_shutdown, exp(%s)> . Disabled_DPM(),
    <receive_busy_notice, _> . Disabled_DPM()
  };
Disabled_DPM(void; void) =
  choice {
    <receive_idle_notice, _> . Enabled_DPM(),
    <receive_busy_notice, _> . Disabled_DPM()
  }
INPUT_INTERACTIONS UNI receive_busy_notice;
                       receive_idle_notice
OUTPUT_INTERACTIONS UNI send_shutdown

ARCHI_TOPOLOGY

ARCHI_ELEM_INSTANCES
GEN  : Generator_Type();
Q    : Queue_Type(%d);
DISK : Disk_Type();
DPM  : DPM_Type()

ARCHI_ATTACHMENTS
FROM GEN.submit TO Q.accept;
FROM Q.dispatch TO DISK.take_request;
FROM DPM.send_shutdown TO DISK.receive_shutdown;
FROM DISK.notify_busy TO DPM.receive_busy_notice;
FROM DISK.notify_idle TO DPM.receive_idle_notice

END
|}
    (fr (1.0 /. p.interarrival_mean))
    (fr p.monitor_rate)
    (fr (1.0 /. p.service_mean))
    (fr p.monitor_rate)
    (fr (1.0 /. p.spindown_mean))
    (fr p.monitor_rate)
    (fr p.monitor_rate)
    (fr (1.0 /. p.spinup_mean))
    (fr p.monitor_rate)
    (fr (1.0 /. p.dpm_timeout_mean))
    p.queue_capacity

let archi p = Parser.parse (source p)

let elaborate p = Elaborate.elaborate (archi p)

let high_actions = [ "DPM.send_shutdown#DISK.receive_shutdown" ]

let low_actions = [ "GEN.submit#Q.accept"; "DISK.complete_request" ]

let measures_source =
  {|
MEASURE completions IS
  ENABLED(DISK.complete_request) -> TRANS_REWARD(1);
MEASURE submissions IS
  ENABLED(GEN.submit#Q.accept) -> TRANS_REWARD(1);
MEASURE drops IS
  ENABLED(Q.drop_request) -> TRANS_REWARD(1);
MEASURE sleep_time IS
  ENABLED(DISK.monitor_disk_sleep) -> STATE_REWARD(1);
|}

(* The energy measure's rewards depend on the power profile, so it is
   constructed programmatically next to the parsed ones. *)
let measures_with_power p =
  Measure.parse measures_source
  @ [
      Measure.measure "energy"
        [
          Measure.state_clause "DISK.monitor_disk_active" p.power_active;
          Measure.state_clause "DISK.monitor_disk_idle" p.power_idle;
          Measure.state_clause "DISK.monitor_disk_seek" p.power_seek;
          Measure.state_clause "DISK.monitor_disk_sleep" p.power_sleep;
        ];
    ]

type metrics = {
  throughput : float;
  energy_rate : float;
  energy_per_request : float;
  drop_ratio : float;
  sleep_fraction : float;
}

let metrics_of_values values =
  let get name =
    match List.assoc_opt name values with
    | Some v -> v
    | None -> invalid_arg (Printf.sprintf "Disk.metrics_of_values: missing %s" name)
  in
  let throughput = get "completions" in
  let energy_rate = get "energy" in
  let submissions = get "submissions" in
  {
    throughput;
    energy_rate;
    energy_per_request =
      (if throughput > 0.0 then energy_rate /. throughput else nan);
    drop_ratio = (if submissions > 0.0 then get "drops" /. submissions else 0.0);
    sleep_fraction = get "sleep_time";
  }

let compare_dpm p =
  let el = elaborate p in
  let with_dpm, without =
    Markov.compare_dpm el.Elaborate.spec ~high:high_actions (measures_with_power p)
  in
  ( metrics_of_values with_dpm.Markov.values,
    metrics_of_values without.Markov.values )
