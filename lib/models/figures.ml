module Lts = Dpma_lts.Lts
module NI = Dpma_core.Noninterference
module Markov = Dpma_core.Markov
module General = Dpma_core.General
module Elaborate = Dpma_adl.Elaborate
module Stats = Dpma_util.Stats
module Pool = Dpma_util.Pool

(* Every sweep below used to be embarrassingly parallel — one elaborate ->
   LTS -> CTMC-solve/simulate chain per sweep point. The sweep points of
   one figure differ only in a DPM constant (a timeout, an awake period),
   so their state spaces overlap almost entirely: the sweeps now elaborate
   every point, run ONE featured build over the whole family
   ([Markov.family]), and project each point's LTS out of the shared
   structure. Each projected LTS is bit-identical to [Lts.of_spec] on
   that point's spec, so every figure is unchanged. [?jobs] defaults to
   [Pool.default_jobs]; results are independent of the job count because
   the featured build is deterministic and the rows are returned in sweep
   order. *)

(* ------------------------------------------------------------------ *)
(* Section 3                                                           *)

type sec3 = {
  simplified_rpc : NI.verdict;
  revised_rpc : NI.verdict;
  streaming : NI.verdict;
}

let sec3_noninterference ?jobs () =
  let checks =
    [
      (fun () ->
        let simplified =
          (Elaborate.elaborate (Rpc.simplified_archi ())).Elaborate.spec
        in
        NI.check_spec simplified ~high:Rpc.high_actions
          ~low:Rpc.low_actions_simplified);
      (fun () ->
        let revised =
          (Rpc.elaborate ~mode:Rpc.Markovian ~monitors:false Rpc.default_params)
            .Elaborate.spec
        in
        NI.check_spec revised ~high:Rpc.high_actions ~low:Rpc.low_actions);
      (fun () ->
        let small_streaming =
          (Streaming.elaborate ~mode:Streaming.Markovian ~monitors:false
             {
               Streaming.default_params with
               ap_buffer_size = 2;
               client_buffer_size = 2;
             })
            .Elaborate.spec
        in
        NI.check_spec small_streaming ~high:Streaming.high_actions
          ~low:Streaming.low_actions);
    ]
  in
  match Pool.parallel_map ?jobs (fun check -> check ()) checks with
  | [ simplified_rpc; revised_rpc; streaming ] ->
      { simplified_rpc; revised_rpc; streaming }
  | _ -> assert false

let pp_sec3 ppf s =
  Format.fprintf ppf
    "@[<v>== Sect. 3: noninterference analysis ==@,@,\
     --- simplified rpc (Sect. 2.3) ---@,%a@,@,\
     --- revised rpc (Sect. 3.1) ---@,%a@,@,\
     --- streaming (Sect. 3.2) ---@,%a@]"
    NI.pp_verdict s.simplified_rpc NI.pp_verdict s.revised_rpc NI.pp_verdict
    s.streaming

(* ------------------------------------------------------------------ *)
(* rpc sweeps (Fig. 3, Fig. 5, Fig. 7)                                 *)

type rpc_row = {
  shutdown_timeout : float;
  with_dpm : Rpc.metrics;
  without_dpm : Rpc.metrics;
}

let default_rpc_timeouts =
  [ 0.1; 0.5; 1.0; 2.0; 3.0; 5.0; 7.5; 10.0; 12.5; 15.0; 20.0; 25.0 ]

let rpc_measures = Rpc.measures ()

let fig3_markov ?jobs ?(timeouts = default_rpc_timeouts) () =
  (* The DPM-less chain does not depend on the shutdown timeout: restrict
     the DPM commands once. *)
  let base =
    Rpc.elaborate ~mode:Rpc.Markovian ~monitors:true Rpc.default_params
  in
  let base_lts = Lts.of_spec base.Elaborate.spec in
  let without_lts = Markov.without_dpm base_lts ~high:Rpc.high_actions in
  let without_dpm =
    Rpc.metrics_of_values (Markov.analyze_lts without_lts rpc_measures).Markov.values
  in
  let specs =
    Array.of_list
      (List.map
         (fun t ->
           (Rpc.elaborate ~mode:Rpc.Markovian ~monitors:true
              { Rpc.default_params with shutdown_mean = t })
             .Elaborate.spec)
         timeouts)
  in
  let analyses, _ =
    Option.get (Markov.family ?jobs ~measures:rpc_measures specs).Markov.solved
  in
  List.mapi
    (fun i shutdown_timeout ->
      let with_dpm = Rpc.metrics_of_values analyses.(i).Markov.values in
      { shutdown_timeout; with_dpm; without_dpm })
    timeouts

let general_rpc_sim_defaults =
  { General.default_sim_params with runs = 30; duration = 30_000.0; warmup = 3_000.0 }

let estimates_to_values estimates =
  List.map
    (fun { General.measure; summary } -> (measure, summary.Stats.mean))
    estimates

let fig3_general ?jobs ?(timeouts = default_rpc_timeouts)
    ?(sim = general_rpc_sim_defaults) () =
  let simulate_metrics lts timing =
    Rpc.metrics_of_values
      (estimates_to_values
         (General.simulate lts ~timing ~measures:rpc_measures sim))
  in
  let base =
    Rpc.elaborate ~mode:Rpc.General ~monitors:true Rpc.default_params
  in
  let base_lts = Lts.of_spec base.Elaborate.spec in
  let base_timing = General.timing_of_list base.Elaborate.general_timings in
  let without_dpm =
    simulate_metrics (Markov.without_dpm base_lts ~high:Rpc.high_actions) base_timing
  in
  let els =
    List.map
      (fun t ->
        Rpc.elaborate ~mode:Rpc.General ~monitors:true
          { Rpc.default_params with shutdown_mean = t })
      timeouts
  in
  let ltss =
    (Markov.family ?jobs
       (Array.of_list (List.map (fun el -> el.Elaborate.spec) els)))
      .Markov.members
  in
  Pool.parallel_map ?jobs
    (fun (i, shutdown_timeout) ->
      let el = List.nth els i in
      let timing = General.timing_of_list el.Elaborate.general_timings in
      {
        shutdown_timeout;
        with_dpm = simulate_metrics ltss.(i) timing;
        without_dpm;
      })
    (List.mapi (fun i t -> (i, t)) timeouts)

let pp_rpc_rows ~title ppf rows =
  Format.fprintf ppf "@[<v>== %s ==@," title;
  Format.fprintf ppf
    "%-9s | %-10s %-10s | %-10s %-10s | %-10s %-10s@," "timeout"
    "thr(DPM)" "thr(no)" "wait(DPM)" "wait(no)" "e/req(DPM)" "e/req(no)";
  List.iter
    (fun r ->
      Format.fprintf ppf
        "%-9.2f | %-10.5f %-10.5f | %-10.4f %-10.4f | %-10.4f %-10.4f@,"
        r.shutdown_timeout r.with_dpm.Rpc.throughput
        r.without_dpm.Rpc.throughput r.with_dpm.Rpc.waiting_time
        r.without_dpm.Rpc.waiting_time r.with_dpm.Rpc.energy_per_request
        r.without_dpm.Rpc.energy_per_request)
    rows;
  Format.fprintf ppf "@]"

(* ------------------------------------------------------------------ *)
(* Fig. 5: validation                                                  *)

type validation_row = {
  v_timeout : float;
  markov_energy : float;
  sim_energy : Stats.summary;
}

let fig5_validation ?jobs ?(timeouts = [ 1.0; 5.0; 10.0; 15.0; 20.0; 25.0 ])
    ?(sim = general_rpc_sim_defaults) () =
  let els =
    List.map
      (fun t ->
        Rpc.elaborate ~mode:Rpc.General ~monitors:true
          { Rpc.default_params with shutdown_mean = t })
      timeouts
  in
  let ltss =
    (Markov.family ?jobs
       (Array.of_list (List.map (fun el -> el.Elaborate.spec) els)))
      .Markov.members
  in
  Pool.parallel_map ?jobs
    (fun (i, v_timeout) ->
      let el = List.nth els i in
      let lts = ltss.(i) in
      let timing =
        Dpma_sim.Sim.exponential_assignment
          (General.timing_of_list el.Elaborate.general_timings)
      in
      let markov = Markov.analyze_lts lts rpc_measures in
      let estimates =
        General.simulate lts ~timing ~measures:rpc_measures sim
      in
      let sim_energy =
        (List.find (fun e -> String.equal e.General.measure "energy") estimates)
          .General.summary
      in
      { v_timeout; markov_energy = Markov.value markov "energy"; sim_energy })
    (List.mapi (fun i t -> (i, t)) timeouts)

let pp_validation_rows ppf rows =
  Format.fprintf ppf
    "@[<v>== Fig. 5: validation of the general rpc model (30 runs, 90%% CI) ==@,";
  Format.fprintf ppf "%-9s | %-14s | %-14s %-12s | %s@," "timeout"
    "markov energy" "sim energy" "+/-" "consistent";
  List.iter
    (fun r ->
      let consistent =
        abs_float (r.sim_energy.Stats.mean -. r.markov_energy)
        <= r.sim_energy.Stats.half_width +. (0.05 *. r.markov_energy)
      in
      Format.fprintf ppf "%-9.2f | %-14.5f | %-14.5f %-12.5f | %s@," r.v_timeout
        r.markov_energy r.sim_energy.Stats.mean r.sim_energy.Stats.half_width
        (if consistent then "yes" else "NO"))
    rows;
  Format.fprintf ppf "@]"

(* ------------------------------------------------------------------ *)
(* streaming sweeps (Fig. 4, Fig. 6, Fig. 8)                           *)

type streaming_row = {
  awake_period : float;
  s_with_dpm : Streaming.metrics;
  s_without_dpm : Streaming.metrics;
}

let default_awake_periods = [ 1.0; 25.0; 50.0; 100.0; 200.0; 400.0; 800.0 ]

let fig4_markov ?jobs ?(awake_periods = default_awake_periods) () =
  let p0 = Streaming.default_params in
  let measures = Streaming.measures p0 in
  let base = Streaming.elaborate ~mode:Streaming.Markovian ~monitors:true p0 in
  let base_lts = Lts.of_spec base.Elaborate.spec in
  let without_lts = Markov.without_dpm base_lts ~high:Streaming.high_actions in
  let s_without_dpm =
    Streaming.metrics_of_values
      (Markov.analyze_lts without_lts measures).Markov.values
  in
  let specs =
    Array.of_list
      (List.map
         (fun a ->
           (Streaming.elaborate ~mode:Streaming.Markovian ~monitors:true
              { p0 with awake_period_mean = a })
             .Elaborate.spec)
         awake_periods)
  in
  let analyses, _ =
    Option.get (Markov.family ?jobs ~measures specs).Markov.solved
  in
  List.mapi
    (fun i awake_period ->
      let s_with_dpm =
        Streaming.metrics_of_values analyses.(i).Markov.values
      in
      { awake_period; s_with_dpm; s_without_dpm })
    awake_periods

let general_streaming_sim_defaults =
  {
    General.default_sim_params with
    runs = 15;
    duration = 150_000.0;
    warmup = 5_000.0;
  }

let fig6_general ?jobs ?(awake_periods = default_awake_periods)
    ?(sim = general_streaming_sim_defaults) () =
  let p0 = Streaming.default_params in
  let measures = Streaming.measures p0 in
  let simulate_metrics lts timing =
    Streaming.metrics_of_values
      (estimates_to_values (General.simulate lts ~timing ~measures sim))
  in
  let base = Streaming.elaborate ~mode:Streaming.General ~monitors:true p0 in
  let base_lts = Lts.of_spec base.Elaborate.spec in
  let base_timing = General.timing_of_list base.Elaborate.general_timings in
  let s_without_dpm =
    simulate_metrics
      (Markov.without_dpm base_lts ~high:Streaming.high_actions)
      base_timing
  in
  let els =
    List.map
      (fun a ->
        Streaming.elaborate ~mode:Streaming.General ~monitors:true
          { p0 with awake_period_mean = a })
      awake_periods
  in
  let ltss =
    (Markov.family ?jobs
       (Array.of_list (List.map (fun el -> el.Elaborate.spec) els)))
      .Markov.members
  in
  Pool.parallel_map ?jobs
    (fun (i, awake_period) ->
      let el = List.nth els i in
      let timing = General.timing_of_list el.Elaborate.general_timings in
      {
        awake_period;
        s_with_dpm = simulate_metrics ltss.(i) timing;
        s_without_dpm;
      })
    (List.mapi (fun i a -> (i, a)) awake_periods)

let pp_streaming_rows ~title ppf rows =
  Format.fprintf ppf "@[<v>== %s ==@," title;
  Format.fprintf ppf
    "%-9s | %-11s %-11s | %-8s %-8s | %-8s %-8s | %-8s %-8s@," "awake"
    "e/fr(DPM)" "e/fr(no)" "loss(D)" "loss(no)" "miss(D)" "miss(no)" "qual(D)"
    "qual(no)";
  List.iter
    (fun r ->
      Format.fprintf ppf
        "%-9.1f | %-11.3f %-11.3f | %-8.4f %-8.4f | %-8.4f %-8.4f | %-8.4f \
         %-8.4f@,"
        r.awake_period r.s_with_dpm.Streaming.energy_per_frame
        r.s_without_dpm.Streaming.energy_per_frame r.s_with_dpm.Streaming.loss
        r.s_without_dpm.Streaming.loss r.s_with_dpm.Streaming.miss
        r.s_without_dpm.Streaming.miss r.s_with_dpm.Streaming.quality
        r.s_without_dpm.Streaming.quality)
    rows;
  Format.fprintf ppf "@]"

(* ------------------------------------------------------------------ *)
(* Tradeoff curves                                                     *)

(* Fig. 7 / Fig. 8: energy-quality tradeoff curves, assembled from the
   sweeps above (energy/request vs waiting time; energy/frame vs miss). *)

let pp_fig7 ~markov ~general ppf () =
  Format.fprintf ppf
    "@[<v>== Fig. 7: rpc energy/request vs waiting time tradeoff ==@,";
  Format.fprintf ppf "%-9s | %-12s %-12s | %-12s %-12s@," "timeout"
    "wait(markov)" "e/req(markov)" "wait(general)" "e/req(general)";
  List.iter2
    (fun (m : rpc_row) (g : rpc_row) ->
      Format.fprintf ppf "%-9.2f | %-12.4f %-12.4f | %-13.4f %-12.4f@,"
        m.shutdown_timeout m.with_dpm.Rpc.waiting_time
        m.with_dpm.Rpc.energy_per_request g.with_dpm.Rpc.waiting_time
        g.with_dpm.Rpc.energy_per_request)
    markov general;
  Format.fprintf ppf "@]"

let pp_fig8 ~markov ~general ppf () =
  Format.fprintf ppf
    "@[<v>== Fig. 8: streaming energy/frame vs miss rate tradeoff ==@,";
  Format.fprintf ppf "%-9s | %-12s %-12s | %-12s %-12s@," "awake"
    "miss(markov)" "e/fr(markov)" "miss(general)" "e/fr(general)";
  List.iter2
    (fun (m : streaming_row) (g : streaming_row) ->
      Format.fprintf ppf "%-9.1f | %-12.4f %-12.3f | %-13.4f %-12.3f@,"
        m.awake_period m.s_with_dpm.Streaming.miss
        m.s_with_dpm.Streaming.energy_per_frame g.s_with_dpm.Streaming.miss
        g.s_with_dpm.Streaming.energy_per_frame)
    markov general;
  Format.fprintf ppf "@]"

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)

type policy_row = {
  p_timeout : float;
  timeout_policy : Rpc.metrics;
  trivial_policy : Rpc.metrics;
  predictive_policy : Rpc.metrics;
}

let ablation_rpc_policy ?jobs ?(timeouts = [ 0.5; 2.0; 5.0; 10.0; 25.0 ]) () =
  (* One family across BOTH axes: the three policy classes only replace
     the DPM element's equations, so even cross-policy configurations
     share the client/server/channel behaviors. *)
  let policies = [ Rpc.Timeout; Rpc.Trivial; Rpc.Predictive ] in
  let specs =
    Array.of_list
      (List.concat_map
         (fun t ->
           List.map
             (fun policy ->
               (Rpc.elaborate ~mode:Rpc.Markovian ~monitors:true ~policy
                  { Rpc.default_params with shutdown_mean = t })
                 .Elaborate.spec)
             policies)
         timeouts)
  in
  let analyses, _ =
    Option.get (Markov.family ?jobs ~measures:rpc_measures specs).Markov.solved
  in
  List.mapi
    (fun i p_timeout ->
      let m j = Rpc.metrics_of_values analyses.((3 * i) + j).Markov.values in
      {
        p_timeout;
        timeout_policy = m 0;
        trivial_policy = m 1;
        predictive_policy = m 2;
      })
    timeouts

let pp_policy_rows ppf rows =
  Format.fprintf ppf
    "@[<v>== Ablation: rpc DPM policy classes — timeout / trivial / predictive ==@,";
  Format.fprintf ppf "%-9s | %-10s %-10s %-10s | %-11s %-11s %-11s@," "period"
    "thr(T/O)" "thr(triv)" "thr(pred)" "e/req(T/O)" "e/req(triv)"
    "e/req(pred)";
  List.iter
    (fun r ->
      Format.fprintf ppf
        "%-9.2f | %-10.5f %-10.5f %-10.5f | %-11.4f %-11.4f %-11.4f@,"
        r.p_timeout r.timeout_policy.Rpc.throughput
        r.trivial_policy.Rpc.throughput r.predictive_policy.Rpc.throughput
        r.timeout_policy.Rpc.energy_per_request
        r.trivial_policy.Rpc.energy_per_request
        r.predictive_policy.Rpc.energy_per_request)
    rows;
  Format.fprintf ppf "@]"

type lumping_row = {
  l_model : string;
  full_states : int;
  lumped_states : int;
  max_relative_error : float;
}

let ablation_lumping ?jobs () =
  let compare_one name lts measures =
    let full = Markov.analyze_lts lts measures in
    let lumped = Markov.analyze_lts_lumped lts measures in
    let max_err =
      List.fold_left2
        (fun acc (_, a) (_, b) ->
          Float.max acc (Dpma_util.Stats.relative_error ~reference:a b))
        0.0 full.Markov.values lumped.Markov.values
    in
    {
      l_model = name;
      full_states = full.Markov.tangible;
      lumped_states = lumped.Markov.tangible;
      max_relative_error = max_err;
    }
  in
  let rpc =
    Lts.of_spec
      (Rpc.elaborate ~mode:Rpc.Markovian ~monitors:true Rpc.default_params)
        .Elaborate.spec
  in
  let sp =
    { Streaming.default_params with ap_buffer_size = 4; client_buffer_size = 4 }
  in
  let streaming =
    Lts.of_spec
      (Streaming.elaborate ~mode:Streaming.Markovian ~monitors:true sp)
        .Elaborate.spec
  in
  Pool.parallel_map ?jobs
    (fun work -> work ())
    [
      (fun () -> compare_one "rpc" rpc rpc_measures);
      (fun () ->
        compare_one "streaming (buffers 4)" streaming (Streaming.measures sp));
    ]

let pp_lumping_rows ppf rows =
  Format.fprintf ppf
    "@[<v>== Ablation: ordinary lumpability as a CTMC pre-reduction ==@,";
  Format.fprintf ppf "%-24s %-12s %-14s %s@," "model" "full states"
    "lumped states" "max rel. error";
  List.iter
    (fun r ->
      Format.fprintf ppf "%-24s %-12d %-14d %.2e@," r.l_model r.full_states
        r.lumped_states r.max_relative_error)
    rows;
  Format.fprintf ppf "@]"

(* Distribution-family ablation: how many Erlang stages does the rpc model
   need before the general model's bimodal behaviour (knee at the 11.3 ms
   idle period) emerges from simulation? k = 1 is the exponential
   (Markovian-consistent) model; the deterministic model is the limit. *)
type family_row = {
  f_timeout : float;
  exponential_thr : float;
  erlang5_thr : float;
  erlang20_thr : float;
  deterministic_thr : float;
}

let family_sim_defaults =
  { General.default_sim_params with runs = 10; duration = 15_000.0; warmup = 1_500.0 }

let ablation_distribution_family ?jobs
    ?(timeouts = [ 2.0; 5.0; 8.0; 10.0; 12.5; 15.0; 25.0 ])
    ?(sim = family_sim_defaults) () =
  let throughput_at mode shutdown_mean =
    let el =
      Rpc.elaborate ~mode ~monitors:true
        { Rpc.default_params with shutdown_mean }
    in
    let lts = Lts.of_spec el.Elaborate.spec in
    let timing = General.timing_of_list el.Elaborate.general_timings in
    let estimates = General.simulate lts ~timing ~measures:rpc_measures sim in
    (Rpc.metrics_of_values (estimates_to_values estimates)).Rpc.throughput
  in
  Pool.parallel_map ?jobs
    (fun f_timeout ->
      {
        f_timeout;
        exponential_thr = throughput_at (Rpc.Erlangized 1) f_timeout;
        erlang5_thr = throughput_at (Rpc.Erlangized 5) f_timeout;
        erlang20_thr = throughput_at (Rpc.Erlangized 20) f_timeout;
        deterministic_thr = throughput_at Rpc.General f_timeout;
      })
    timeouts

let pp_family_rows ppf rows =
  Format.fprintf ppf
    "@[<v>== Ablation: distribution family vs the bimodal knee (rpc \
     throughput with DPM) ==@,";
  Format.fprintf ppf "%-9s | %-10s %-10s %-10s %-10s@," "timeout" "exp"
    "erlang-5" "erlang-20" "det";
  List.iter
    (fun r ->
      Format.fprintf ppf "%-9.2f | %-10.5f %-10.5f %-10.5f %-10.5f@,"
        r.f_timeout r.exponential_thr r.erlang5_thr r.erlang20_thr
        r.deterministic_thr)
    rows;
  Format.fprintf ppf "@]"

(* ------------------------------------------------------------------ *)
(* The figure suite                                                    *)

type size = Tiny | Quick | Full

let section_names =
  [ "sec3"; "fig3"; "fig4"; "fig5"; "fig6"; "fig7"; "fig8"; "ablations";
    "battery"; "disk" ]

let sim_params runs duration warmup =
  { General.default_sim_params with runs; duration; warmup }

(* Battery lifetime (the title's unit): see battery.ml. *)
let battery_table ppf ~timed ~timeouts =
  let battery = Battery.default_params in
  Format.fprintf ppf
    "== Battery lifetime (capacity %d quanta, rpc appliance) ==@."
    battery.Battery.capacity;
  Format.fprintf ppf "%-9s | %-12s %-12s %s@." "timeout" "with DPM" "without"
    "extension";
  List.iter
    (fun (t, l) ->
      Format.fprintf ppf "%-9.1f | %-12.2f %-12.2f %+.0f%%@." t
        l.Battery.with_dpm l.Battery.without_dpm (100.0 *. l.Battery.extension))
    (timed (fun () -> Battery.lifetime_sweep battery ~timeouts));
  Format.fprintf ppf "@."

(* Third case study: the disk-drive break-even sweep. *)
let disk_table ppf ~timed ~interarrivals =
  Format.fprintf ppf "== Disk drive: spin-down break-even (third case study) ==@.";
  Format.fprintf ppf "%-16s | %-12s %-12s | %-8s %s@." "interarrival(s)"
    "e/req DPM" "e/req no" "drop DPM" "verdict";
  let rows =
    timed (fun () ->
        Pool.parallel_map
          (fun inter ->
            Disk.compare_dpm
              { Disk.default_params with Disk.interarrival_mean = inter })
          interarrivals)
  in
  List.iter2
    (fun inter ((w : Disk.metrics), (wo : Disk.metrics)) ->
      Format.fprintf ppf "%-16.1f | %-12.0f %-12.0f | %-8.4f %s@."
        (inter /. 1000.0) w.energy_per_request wo.energy_per_request
        w.drop_ratio
        (if w.energy_per_request < wo.energy_per_request then "DPM wins"
         else "DPM counterproductive"))
    interarrivals rows;
  Format.fprintf ppf "@."

let print ?(on_timing = fun _ _ -> ()) ?(only = []) size ppf =
  let timed name f =
    let t0 = Dpma_obs.Clock.now_s () in
    let r = f () in
    on_timing name (Dpma_obs.Clock.now_s () -. t0);
    r
  in
  (* [pick quick full]: the value at the quick size, or at the full one. *)
  let pick quick full = if size = Full then full else quick in
  let table pp rows = Format.fprintf ppf "%a@.@." pp rows in
  let rpc title rows = table (pp_rpc_rows ~title) rows in
  let streaming title rows = table (pp_streaming_rows ~title) rows in
  let sec3 () = table pp_sec3 (timed "sec3" (fun () -> sec3_noninterference ())) in
  let sections =
    if size = Tiny then
      (* One Markovian and one simulated fig3 point: enough to touch every
         pipeline metric. *)
      let sim = sim_params 2 2_000.0 200.0 in
      [
        ("sec3", sec3);
        ( "fig3",
          fun () ->
            rpc "Fig. 3 (left): rpc Markovian, one point"
              (timed "fig3-markov" (fun () -> fig3_markov ~timeouts:[ 5.0 ] ()));
            rpc "Fig. 3 (right): rpc general, one point"
              (timed "fig3-general" (fun () ->
                   fig3_general ~timeouts:[ 5.0 ] ~sim ())) );
      ]
    else
      let rpc_sim = pick (sim_params 10 10_000.0 1_000.0) general_rpc_sim_defaults in
      let streaming_sim =
        pick (sim_params 5 50_000.0 3_000.0) (sim_params 10 120_000.0 5_000.0)
      in
      let timeouts = pick [ 0.5; 2.0; 5.0; 10.0; 12.5; 25.0 ] default_rpc_timeouts in
      let awake_periods = pick [ 1.0; 100.0; 400.0; 800.0 ] default_awake_periods in
      (* Figs. 7 and 8 are assembled from the rows of Figs. 3, 4 and 6, so
         each sweep runs at most once per call. *)
      let fig3m = lazy (timed "fig3-markov" (fun () -> fig3_markov ~timeouts ())) in
      let fig3g =
        lazy
          (timed "fig3-general" (fun () ->
               fig3_general ~timeouts ~sim:rpc_sim ()))
      in
      let fig4 = lazy (timed "fig4" (fun () -> fig4_markov ~awake_periods ())) in
      let fig6 =
        lazy
          (timed "fig6" (fun () ->
               fig6_general ~awake_periods ~sim:streaming_sim ()))
      in
      [
        ("sec3", sec3);
        ( "fig3",
          fun () ->
            rpc "Fig. 3 (left): rpc Markovian" (Lazy.force fig3m);
            rpc "Fig. 3 (right): rpc general" (Lazy.force fig3g) );
        ( "fig4",
          fun () -> streaming "Fig. 4: streaming Markovian" (Lazy.force fig4) );
        ( "fig5",
          fun () ->
            table pp_validation_rows
              (timed "fig5" (fun () -> fig5_validation ~sim:rpc_sim ())) );
        ("fig6", fun () -> streaming "Fig. 6: streaming general" (Lazy.force fig6));
        ( "fig7",
          fun () ->
            pp_fig7 ~markov:(Lazy.force fig3m) ~general:(Lazy.force fig3g) ppf ();
            Format.fprintf ppf "@.@." );
        ( "fig8",
          fun () ->
            pp_fig8 ~markov:(Lazy.force fig4) ~general:(Lazy.force fig6) ppf ();
            Format.fprintf ppf "@.@." );
        (* Design-choice ablations (not figures of the paper; see DESIGN.md). *)
        ( "ablations",
          fun () ->
            timed "ablations" (fun () ->
                table pp_policy_rows (ablation_rpc_policy ());
                table pp_lumping_rows (ablation_lumping ());
                table pp_family_rows
                  (ablation_distribution_family
                     ~sim:(pick (sim_params 5 8_000.0 800.0) family_sim_defaults)
                     ())) );
        ( "battery",
          fun () ->
            battery_table ppf ~timed:(timed "battery")
              ~timeouts:(pick [ 1.0; 10.0 ] [ 0.5; 1.0; 2.0; 5.0; 10.0; 25.0 ]) );
        ( "disk",
          fun () ->
            disk_table ppf ~timed:(timed "disk")
              ~interarrivals:
                (pick [ 2_000.0; 30_000.0 ]
                   [ 500.0; 2_000.0; 8_000.0; 15_000.0; 30_000.0; 120_000.0 ]) );
      ]
  in
  List.iter
    (fun (name, section) -> if only = [] || List.mem name only then section ())
    sections
