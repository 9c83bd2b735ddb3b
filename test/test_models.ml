(* Tests for the two case studies: structural sanity, Markovian trends
   (paper Sect. 4), general-model behaviors (paper Sect. 5), figure
   drivers. *)

module Lts = Dpma_lts.Lts
module Ctmc = Dpma_ctmc.Ctmc
module Markov = Dpma_core.Markov
module General = Dpma_core.General
module Elaborate = Dpma_adl.Elaborate
module Rpc = Dpma_models.Rpc
module Streaming = Dpma_models.Streaming
module Figures = Dpma_models.Figures
module Adhoc = Dpma_models.Adhoc

let rpc_lts mode monitors p =
  Lts.of_spec (Rpc.elaborate ~mode ~monitors p).Elaborate.spec

let test_rpc_structure () =
  let lts = rpc_lts Rpc.Markovian false Rpc.default_params in
  Alcotest.(check int) "deadlock free" 0 (List.length (Lts.deadlock_states lts));
  Alcotest.(check bool) "moderate state space" true (lts.Lts.num_states < 2_000);
  let el = Rpc.elaborate ~mode:Rpc.Markovian ~monitors:false Rpc.default_params in
  Alcotest.(check (list string)) "closed system" []
    el.Elaborate.unattached_interactions

let test_rpc_monitors_do_not_change_dynamics () =
  (* Monitors only add self-loops: same tangible behaviour, so throughput
     is unchanged. *)
  let p = Rpc.default_params in
  let with_m =
    Markov.analyze_lts (rpc_lts Rpc.Markovian true p) (Rpc.measures ())
  in
  let thr = Markov.value with_m "throughput" in
  Alcotest.(check bool) "throughput in sane band" true (thr > 0.05 && thr < 0.1)

let test_rpc_markov_trends () =
  (* Paper Fig. 3 (left): with DPM, throughput lower and waiting higher;
     energy per request always lower than without DPM; effect shrinks as
     the timeout grows. *)
  let rows = Figures.fig3_markov ~timeouts:[ 0.5; 5.0; 20.0 ] () in
  List.iter
    (fun (r : Figures.rpc_row) ->
      Alcotest.(check bool) "thr degraded" true
        (r.Figures.with_dpm.Rpc.throughput < r.Figures.without_dpm.Rpc.throughput);
      Alcotest.(check bool) "wait increased" true
        (r.Figures.with_dpm.Rpc.waiting_time > r.Figures.without_dpm.Rpc.waiting_time);
      Alcotest.(check bool) "energy saved" true
        (r.Figures.with_dpm.Rpc.energy_per_request
        < r.Figures.without_dpm.Rpc.energy_per_request))
    rows;
  let thr_at i = (List.nth rows i).Figures.with_dpm.Rpc.throughput in
  Alcotest.(check bool) "throughput recovers with longer timeout" true
    (thr_at 0 < thr_at 1 && thr_at 1 < thr_at 2);
  let e_at i = (List.nth rows i).Figures.with_dpm.Rpc.energy_per_request in
  Alcotest.(check bool) "energy grows with timeout" true
    (e_at 0 < e_at 1 && e_at 1 < e_at 2);
  (* The without-DPM reference does not depend on the sweep. *)
  let wo i = (List.nth rows i).Figures.without_dpm.Rpc.throughput in
  Alcotest.(check (float 1e-12)) "reference constant" (wo 0) (wo 2)

let fast_sim = { General.default_sim_params with runs = 5; duration = 10_000.0; warmup = 1_000.0 }

let test_rpc_general_bimodal () =
  (* Paper Fig. 3 (right): below the deterministic idle period (11.3 ms)
     the DPM always fires, so throughput is flat; above it the DPM has no
     effect. *)
  let rows = Figures.fig3_general ~timeouts:[ 2.0; 8.0; 20.0 ] ~sim:fast_sim () in
  let thr i = (List.nth rows i).Figures.with_dpm.Rpc.throughput in
  let without = (List.hd rows).Figures.without_dpm.Rpc.throughput in
  Alcotest.(check (float 0.002)) "flat below knee" (thr 0) (thr 1);
  Alcotest.(check (float 0.002)) "no effect above knee" without (thr 2);
  Alcotest.(check bool) "degraded below knee" true (thr 0 < without -. 0.01)

let test_rpc_general_counterproductive_near_knee () =
  (* Near the idle period the server shuts down just before the next
     request: energy per request exceeds the no-DPM level (the
     Pareto-dominated points of Fig. 7). *)
  let rows = Figures.fig3_general ~timeouts:[ 10.0 ] ~sim:fast_sim () in
  let r = List.hd rows in
  Alcotest.(check bool) "counterproductive" true
    (r.Figures.with_dpm.Rpc.energy_per_request
    > r.Figures.without_dpm.Rpc.energy_per_request)

let test_rpc_validation_consistent () =
  (* Paper Fig. 5: the general model with exponential delays reproduces
     the Markovian values. *)
  let el = Rpc.elaborate ~mode:Rpc.General ~monitors:true Rpc.default_params in
  let lts = Lts.of_spec el.Elaborate.spec in
  let timing = General.timing_of_list el.Elaborate.general_timings in
  let v =
    General.validate lts ~timing ~measures:(Rpc.measures ())
      { fast_sim with runs = 10; duration = 20_000.0 }
  in
  Alcotest.(check bool) "consistent" true v.General.consistent;
  Alcotest.(check int) "three lines" 3 (List.length v.General.lines);
  List.iter
    (fun l ->
      Alcotest.(check bool)
        (Printf.sprintf "relative error small for %s" l.General.name)
        true
        (l.General.relative_error < 0.10))
    v.General.lines

let test_rpc_study_wiring () =
  let study = Rpc.study ~mode:Rpc.General Rpc.default_params in
  Alcotest.(check string) "name" "rpc" study.Dpma_core.Pipeline.study_name;
  Alcotest.(check bool) "has overrides" true
    (List.length study.Dpma_core.Pipeline.general_timings > 0);
  Alcotest.(check int) "three measures" 3
    (List.length study.Dpma_core.Pipeline.measures)

(* ------------------------------------------------------------------ *)
(* Streaming *)

let small_streaming =
  {
    Streaming.default_params with
    ap_buffer_size = 3;
    client_buffer_size = 3;
  }

let test_streaming_structure () =
  let el = Streaming.elaborate ~mode:Streaming.Markovian ~monitors:false small_streaming in
  let lts = Lts.of_spec el.Elaborate.spec in
  Alcotest.(check int) "deadlock free" 0 (List.length (Lts.deadlock_states lts));
  Alcotest.(check (list string)) "closed system" []
    el.Elaborate.unattached_interactions

let test_streaming_metrics_consistency () =
  let el = Streaming.elaborate ~mode:Streaming.Markovian ~monitors:true small_streaming in
  let analysis =
    Markov.analyze_lts (Lts.of_spec el.Elaborate.spec)
      (Streaming.measures small_streaming)
  in
  let m = Streaming.metrics_of_values analysis.Markov.values in
  Alcotest.(check (float 1e-9)) "quality + miss = 1" 1.0
    (m.Streaming.quality +. m.Streaming.miss);
  Alcotest.(check bool) "loss within [0,1]" true
    (m.Streaming.loss >= 0.0 && m.Streaming.loss <= 1.0);
  Alcotest.(check bool) "positive energy" true (m.Streaming.energy_per_frame > 0.0)

let test_streaming_markov_trends () =
  (* Paper Fig. 4: longer awake periods save energy and degrade quality. *)
  let p = small_streaming in
  let measures = Streaming.measures p in
  let metrics_at awake =
    let el =
      Streaming.elaborate ~mode:Streaming.Markovian ~monitors:true
        { p with awake_period_mean = awake }
    in
    Streaming.metrics_of_values
      (Markov.analyze_lts (Lts.of_spec el.Elaborate.spec) measures).Markov.values
  in
  let short = metrics_at 25.0 in
  let long = metrics_at 400.0 in
  Alcotest.(check bool) "energy decreases with awake period" true
    (long.Streaming.energy_per_frame < short.Streaming.energy_per_frame);
  Alcotest.(check bool) "quality decreases with awake period" true
    (long.Streaming.quality < short.Streaming.quality)

let test_streaming_dpm_saves_energy () =
  let p = { small_streaming with awake_period_mean = 100.0 } in
  let el = Streaming.elaborate ~mode:Streaming.Markovian ~monitors:true p in
  let with_dpm, without =
    Markov.compare_dpm el.Elaborate.spec ~high:Streaming.high_actions
      (Streaming.measures p)
  in
  let mw = Streaming.metrics_of_values with_dpm.Markov.values in
  let mo = Streaming.metrics_of_values without.Markov.values in
  Alcotest.(check bool) "energy saved" true
    (mw.Streaming.energy_per_frame < 0.7 *. mo.Streaming.energy_per_frame);
  Alcotest.(check bool) "quality cost bounded" true
    (mo.Streaming.quality -. mw.Streaming.quality < 0.1)

let test_streaming_general_no_loss_small_awake () =
  (* Paper Fig. 6: no buffer-full loss for small awake periods in the
     deterministic model. *)
  let p = { small_streaming with awake_period_mean = 50.0 } in
  let el = Streaming.elaborate ~mode:Streaming.General ~monitors:true p in
  let lts = Lts.of_spec el.Elaborate.spec in
  let timing = General.timing_of_list el.Elaborate.general_timings in
  let estimates =
    General.simulate lts ~timing ~measures:(Streaming.measures p)
      { fast_sim with duration = 30_000.0; warmup = 2_000.0 }
  in
  let values =
    List.map (fun e -> (e.General.measure, e.General.summary.Dpma_util.Stats.mean)) estimates
  in
  let m = Streaming.metrics_of_values values in
  Alcotest.(check (float 1e-9)) "no loss" 0.0 m.Streaming.loss;
  Alcotest.(check bool) "high quality" true (m.Streaming.quality > 0.9)

let test_streaming_study_wiring () =
  let study = Streaming.study ~mode:Streaming.General small_streaming in
  Alcotest.(check bool) "functional spec reduced" true
    (study.Dpma_core.Pipeline.functional_spec <> None);
  Alcotest.(check int) "seven raw measures" 7
    (List.length study.Dpma_core.Pipeline.measures)

(* The N-station scaling model (examples/specs/streaming_scaled.aem is
   the pretty-printed default configuration): pin the single-station
   state count and round-trip the generated ADL text through the
   parser. *)
let test_scaled_model () =
  let sp = { Streaming.default_scaled_params with Streaming.stations = 1 } in
  let lts = Lts.of_spec (Streaming.scaled_spec sp) in
  Alcotest.(check int) "1-station scaled states" 530 lts.Lts.num_states;
  let text =
    Format.asprintf "%a" Dpma_adl.Ast.pp (Streaming.scaled_archi sp)
  in
  let el = Elaborate.elaborate (Dpma_adl.Parser.parse text) in
  let lts' = Lts.of_spec el.Elaborate.spec in
  Alcotest.(check int)
    "pretty-printed text round-trips to the same state space"
    lts.Lts.num_states lts'.Lts.num_states

(* The N-node ad hoc chain (examples/specs/adhoc_net.aem is its default
   3-node rendering; the bench scales it past 2M states). The 2-node,
   queue-1 instance is the golden the bench's tiny study builds through
   the spill path — the count must not drift. *)
let test_adhoc_model () =
  let p = { Adhoc.default_params with Adhoc.nodes = 2; queue_size = 1 } in
  let lts = Lts.of_spec (Adhoc.spec ~monitors:false p) in
  Alcotest.(check int) "2-node states" 1_232 lts.Lts.num_states;
  Alcotest.(check (list int)) "deadlock free" [] (Lts.deadlock_states lts);
  (* The pretty-printed text elaborates back to the same state space
     (with monitors, like the shipped .aem file). *)
  let text = Format.asprintf "%a" Dpma_adl.Ast.pp (Adhoc.archi p) in
  let el = Elaborate.elaborate (Dpma_adl.Parser.parse text) in
  let direct = Lts.of_spec (Adhoc.spec p) in
  Alcotest.(check int)
    "pretty-printed text round-trips to the same state space"
    direct.Lts.num_states
    (Lts.of_spec el.Elaborate.spec).Lts.num_states;
  (* DPM channels are the high actions, end-to-end traffic the low ones;
     both scale with the node count. *)
  Alcotest.(check int) "high actions per node" 4
    (List.length (Adhoc.high_actions p));
  let p4 = { p with Adhoc.nodes = 4 } in
  Alcotest.(check int) "high actions scale" 8
    (List.length (Adhoc.high_actions p4));
  let widened =
    Lts.of_spec
      (Adhoc.spec ~monitors:false { p with Adhoc.head_queue_size = Some 3 })
  in
  Alcotest.(check bool) "head_queue_size grows the space" true
    (widened.Lts.num_states > lts.Lts.num_states)

let test_adhoc_validation () =
  List.iter
    (fun p ->
      try
        ignore (Adhoc.archi p);
        Alcotest.fail "expected invalid_arg"
      with Invalid_argument _ -> ())
    [ { Adhoc.default_params with Adhoc.nodes = 0 };
      { Adhoc.default_params with Adhoc.queue_size = 0 };
      { Adhoc.default_params with Adhoc.head_queue_size = Some 0 } ]

let test_buffer_size_validation () =
  (try
     ignore (Streaming.archi { small_streaming with ap_buffer_size = 0 });
     Alcotest.fail "expected invalid_arg"
   with Invalid_argument _ -> ())

(* ------------------------------------------------------------------ *)
(* Figure drivers *)

let test_trivial_policy_transparent () =
  (* The trivial policy of Sect. 2.1 is also noninterfering on the revised
     server (shutdowns are only accepted while idle). *)
  let spec =
    (Rpc.elaborate ~mode:Rpc.Markovian ~monitors:false ~policy:Rpc.Trivial
       Rpc.default_params)
      .Elaborate.spec
  in
  match
    Dpma_core.Noninterference.check_spec spec ~high:Rpc.high_actions
      ~low:Rpc.low_actions
  with
  | Dpma_core.Noninterference.Secure -> ()
  | Dpma_core.Noninterference.Insecure _ ->
      Alcotest.fail "trivial policy must be transparent"

let test_policy_ablation_tradeoff () =
  (* At the same period, the trivial policy shuts down more aggressively:
     it saves at least as much energy and costs at least as much
     throughput as the timeout policy. *)
  let rows = Figures.ablation_rpc_policy ~timeouts:[ 2.0; 10.0 ] () in
  List.iter
    (fun (r : Figures.policy_row) ->
      Alcotest.(check bool) "trivial saves more energy" true
        (r.Figures.trivial_policy.Rpc.energy_per_request
        <= r.Figures.timeout_policy.Rpc.energy_per_request +. 1e-9);
      Alcotest.(check bool) "trivial costs throughput" true
        (r.Figures.trivial_policy.Rpc.throughput
        <= r.Figures.timeout_policy.Rpc.throughput +. 1e-9))
    rows

let test_lumping_preserves_measures () =
  let rows = Figures.ablation_lumping () in
  List.iter
    (fun (r : Figures.lumping_row) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s lumping exact" r.Figures.l_model)
        true
        (r.Figures.max_relative_error < 1e-9);
      Alcotest.(check bool) "lumped not larger" true
        (r.Figures.lumped_states <= r.Figures.full_states))
    rows

let test_sec3_driver () =
  let s = Figures.sec3_noninterference () in
  (match s.Figures.simplified_rpc with
  | Dpma_core.Noninterference.Insecure _ -> ()
  | Dpma_core.Noninterference.Secure -> Alcotest.fail "simplified must fail");
  (match s.Figures.revised_rpc with
  | Dpma_core.Noninterference.Secure -> ()
  | Dpma_core.Noninterference.Insecure _ -> Alcotest.fail "revised must pass");
  match s.Figures.streaming with
  | Dpma_core.Noninterference.Secure -> ()
  | Dpma_core.Noninterference.Insecure _ -> Alcotest.fail "streaming must pass"

let test_figure_row_shapes () =
  let rows = Figures.fig3_markov ~timeouts:[ 1.0; 2.0 ] () in
  Alcotest.(check int) "two rows" 2 (List.length rows);
  let t = List.map (fun r -> r.Figures.shutdown_timeout) rows in
  Alcotest.(check (list (float 0.0))) "sweep order" [ 1.0; 2.0 ] t;
  let v = Figures.fig5_validation ~timeouts:[ 5.0 ] ~sim:fast_sim () in
  Alcotest.(check int) "one validation row" 1 (List.length v);
  let row = List.hd v in
  Alcotest.(check bool) "markov energy positive" true (row.Figures.markov_energy > 0.0)

(* The shipped specs whose header says "regenerate with lib/models/…"
   are pretty-printed generator output: each must equal [Ast.pp] of its
   generator's default configuration, the [%] header and blank lines
   aside. The files are deps of the test stanza: [dune runtest] runs the
   test in [_build/default/test], next to their copies; run by hand from
   the repository root, it reads them in place. *)
let specs_dir =
  Option.value ~default:"examples/specs"
    (List.find_opt Sys.file_exists [ "../examples/specs"; "examples/specs" ])

let spec_lines text =
  String.split_on_char '\n' text
  |> List.filter (fun l ->
         let l = String.trim l in
         l <> "" && l.[0] <> '%')

let test_shipped_specs_regenerate () =
  List.iter
    (fun (file, archi) ->
      let path = Filename.concat specs_dir file in
      let shipped = In_channel.with_open_bin path In_channel.input_all in
      Alcotest.(check (list string)) file
        (spec_lines (Format.asprintf "%a" Dpma_adl.Ast.pp archi))
        (spec_lines shipped))
    [
      ("streaming.aem", Streaming.archi ~mode:Streaming.General Streaming.default_params);
      ("rpc_revised.aem", Rpc.archi ~mode:Rpc.General Rpc.default_params);
      ("adhoc_net.aem", Adhoc.archi Adhoc.default_params);
      ( "streaming_scaled.aem",
        Streaming.scaled_archi Streaming.default_scaled_params );
    ]

let suite =
  [
    Alcotest.test_case "rpc structure" `Quick test_rpc_structure;
    Alcotest.test_case "rpc monitors harmless" `Quick test_rpc_monitors_do_not_change_dynamics;
    Alcotest.test_case "rpc Markov trends (Fig. 3 left)" `Quick test_rpc_markov_trends;
    Alcotest.test_case "rpc general bimodal (Fig. 3 right)" `Slow test_rpc_general_bimodal;
    Alcotest.test_case "rpc general counterproductive" `Slow
      test_rpc_general_counterproductive_near_knee;
    Alcotest.test_case "rpc validation (Fig. 5)" `Slow test_rpc_validation_consistent;
    Alcotest.test_case "rpc study wiring" `Quick test_rpc_study_wiring;
    Alcotest.test_case "streaming structure" `Quick test_streaming_structure;
    Alcotest.test_case "streaming metrics consistency" `Quick
      test_streaming_metrics_consistency;
    Alcotest.test_case "streaming Markov trends (Fig. 4)" `Slow test_streaming_markov_trends;
    Alcotest.test_case "streaming DPM saves energy" `Slow test_streaming_dpm_saves_energy;
    Alcotest.test_case "streaming general no loss (Fig. 6)" `Slow
      test_streaming_general_no_loss_small_awake;
    Alcotest.test_case "streaming study wiring" `Quick test_streaming_study_wiring;
    Alcotest.test_case "scaled model" `Quick test_scaled_model;
    Alcotest.test_case "adhoc model" `Quick test_adhoc_model;
    Alcotest.test_case "shipped specs regenerate" `Quick
      test_shipped_specs_regenerate;
    Alcotest.test_case "adhoc validation" `Quick test_adhoc_validation;
    Alcotest.test_case "buffer size validation" `Quick test_buffer_size_validation;
    Alcotest.test_case "trivial policy transparent" `Quick
      test_trivial_policy_transparent;
    Alcotest.test_case "policy ablation tradeoff" `Slow test_policy_ablation_tradeoff;
    Alcotest.test_case "lumping preserves measures" `Slow test_lumping_preserves_measures;
    Alcotest.test_case "sec3 driver" `Quick test_sec3_driver;
    Alcotest.test_case "figure row shapes" `Slow test_figure_row_shapes;
  ]

let test_predictive_policy_transparent () =
  let spec =
    (Rpc.elaborate ~mode:Rpc.Markovian ~monitors:false ~policy:Rpc.Predictive
       Rpc.default_params)
      .Elaborate.spec
  in
  match
    Dpma_core.Noninterference.check_spec spec ~high:Rpc.high_actions
      ~low:Rpc.low_actions
  with
  | Dpma_core.Noninterference.Secure -> ()
  | Dpma_core.Noninterference.Insecure _ ->
      Alcotest.fail "predictive policy must be transparent"

let test_predictive_policy_structure () =
  let lts =
    Lts.of_spec
      (Rpc.elaborate ~mode:Rpc.Markovian ~monitors:true ~policy:Rpc.Predictive
         Rpc.default_params)
        .Elaborate.spec
  in
  Alcotest.(check int) "deadlock free" 0 (List.length (Lts.deadlock_states lts));
  (* The predictive ablation row exists and produces finite metrics. *)
  let rows = Figures.ablation_rpc_policy ~timeouts:[ 5.0 ] () in
  let r = List.hd rows in
  Alcotest.(check bool) "finite energy" true
    (Float.is_finite r.Figures.predictive_policy.Rpc.energy_per_request);
  Alcotest.(check bool) "throughput sane" true
    (r.Figures.predictive_policy.Rpc.throughput > 0.05)

let predictive_suite =
  [
    Alcotest.test_case "predictive policy transparent" `Quick
      test_predictive_policy_transparent;
    Alcotest.test_case "predictive policy structure" `Slow
      test_predictive_policy_structure;
  ]

let suite = suite @ predictive_suite

(* ------------------------------------------------------------------ *)
(* Battery lifetime *)

module Battery = Dpma_models.Battery

let small_battery =
  { Battery.default_params with Battery.capacity = 12 }

let test_battery_quantum_conservation () =
  (* Without the DPM, the server draws ~2 power almost all the time, so a
     battery of c quanta at 1 quantum per power-unit-ms lives ~c/2 ms. *)
  let l = Battery.expected_lifetime small_battery in
  let expected = float_of_int small_battery.Battery.capacity /. 2.0 in
  Alcotest.(check bool) "lifetime near capacity/power" true
    (abs_float (l.Battery.without_dpm -. expected) < 0.15 *. expected)

let test_battery_dpm_extends_life () =
  let l =
    Battery.expected_lifetime
      { small_battery with Battery.rpc = { Rpc.default_params with Rpc.shutdown_mean = 1.0 } }
  in
  Alcotest.(check bool) "DPM extends life" true
    (l.Battery.with_dpm > 1.3 *. l.Battery.without_dpm);
  Alcotest.(check bool) "extension consistent" true
    (abs_float (l.Battery.extension -. ((l.Battery.with_dpm /. l.Battery.without_dpm) -. 1.0))
    < 1e-9)

let test_battery_lifetime_monotone_in_capacity () =
  let life c =
    (Battery.expected_lifetime { small_battery with Battery.capacity = c })
      .Battery.without_dpm
  in
  let l6 = life 6 and l12 = life 12 in
  Alcotest.(check bool) "doubling capacity doubles life" true
    (abs_float ((l12 /. l6) -. 2.0) < 0.2)

let test_battery_sweep_monotone () =
  (* Shorter shutdown timeouts save more energy, hence longer lifetimes. *)
  let sweep =
    Battery.lifetime_sweep small_battery ~timeouts:[ 1.0; 5.0; 25.0 ]
  in
  (match sweep with
  | [ (_, a); (_, b); (_, c) ] ->
      Alcotest.(check bool) "monotone decreasing in timeout" true
        (a.Battery.with_dpm > b.Battery.with_dpm
        && b.Battery.with_dpm > c.Battery.with_dpm);
      Alcotest.(check (float 1e-9)) "reference constant"
        a.Battery.without_dpm c.Battery.without_dpm
  | _ -> Alcotest.fail "expected three rows")

let test_battery_validation () =
  (try
     ignore (Battery.archi { small_battery with Battery.capacity = 0 });
     Alcotest.fail "expected invalid_arg"
   with Invalid_argument _ -> ())

let battery_suite =
  [
    Alcotest.test_case "battery quantum conservation" `Quick
      test_battery_quantum_conservation;
    Alcotest.test_case "battery DPM extends life" `Quick test_battery_dpm_extends_life;
    Alcotest.test_case "battery capacity scaling" `Quick
      test_battery_lifetime_monotone_in_capacity;
    Alcotest.test_case "battery sweep monotone" `Slow test_battery_sweep_monotone;
    Alcotest.test_case "battery validation" `Quick test_battery_validation;
  ]

let suite = suite @ battery_suite

let test_distribution_family_interpolates () =
  (* Below the knee (8 ms) throughput falls monotonically from exponential
     toward deterministic; above it (12.5 ms) it rises. *)
  let rows =
    Figures.ablation_distribution_family ~timeouts:[ 8.0; 12.5 ]
      ~sim:{ General.default_sim_params with runs = 5; duration = 8_000.0; warmup = 800.0 }
      ()
  in
  match rows with
  | [ below; above ] ->
      Alcotest.(check bool) "below knee: exp > det" true
        (below.Figures.exponential_thr > below.Figures.deterministic_thr);
      Alcotest.(check bool) "below knee: erlang-20 between" true
        (below.Figures.erlang20_thr < below.Figures.exponential_thr +. 0.002
        && below.Figures.erlang20_thr > below.Figures.deterministic_thr -. 0.002);
      Alcotest.(check bool) "above knee: det > exp" true
        (above.Figures.deterministic_thr > above.Figures.exponential_thr)
  | _ -> Alcotest.fail "expected two rows"

let family_suite =
  [
    Alcotest.test_case "distribution family interpolation" `Slow
      test_distribution_family_interpolates;
  ]

let suite = suite @ family_suite

(* ------------------------------------------------------------------ *)
(* Disk drive (third case study, written in concrete ADL text) *)

module Disk = Dpma_models.Disk

let test_disk_parses_and_is_closed () =
  let el = Disk.elaborate Disk.default_params in
  let lts = Lts.of_spec el.Elaborate.spec in
  Alcotest.(check int) "deadlock free" 0 (List.length (Lts.deadlock_states lts));
  Alcotest.(check (list string)) "closed system" []
    el.Elaborate.unattached_interactions;
  Alcotest.(check bool) "small state space" true (lts.Lts.num_states < 200)

let test_disk_noninterference () =
  let el = Disk.elaborate Disk.default_params in
  match
    Dpma_core.Noninterference.check_spec el.Elaborate.spec
      ~high:Disk.high_actions ~low:Disk.low_actions
  with
  | Dpma_core.Noninterference.Secure -> ()
  | Dpma_core.Noninterference.Insecure _ ->
      Alcotest.fail "disk DPM must be transparent"

let test_disk_break_even () =
  (* Sparse workload: DPM saves energy; dense workload: counterproductive
     (the classic spin-up break-even). *)
  let p = Disk.default_params in
  let sparse_w, sparse_wo =
    Disk.compare_dpm { p with Disk.interarrival_mean = 30_000.0 }
  in
  Alcotest.(check bool) "sparse: DPM wins" true
    (sparse_w.Disk.energy_per_request < sparse_wo.Disk.energy_per_request);
  let dense_w, dense_wo =
    Disk.compare_dpm { p with Disk.interarrival_mean = 1_000.0 }
  in
  Alcotest.(check bool) "dense: DPM counterproductive" true
    (dense_w.Disk.energy_per_request > dense_wo.Disk.energy_per_request);
  Alcotest.(check bool) "dense: DPM causes drops" true
    (dense_w.Disk.drop_ratio > dense_wo.Disk.drop_ratio)

let test_disk_metrics_consistency () =
  let w, wo = Disk.compare_dpm Disk.default_params in
  Alcotest.(check bool) "sleep only with DPM" true
    (w.Disk.sleep_fraction > 0.5 && wo.Disk.sleep_fraction = 0.0);
  Alcotest.(check bool) "throughput conserved on sparse load" true
    (abs_float (w.Disk.throughput -. wo.Disk.throughput)
    < 0.05 *. wo.Disk.throughput)

let test_disk_source_roundtrip () =
  (* The concrete text pretty-prints and reparses to an equal AST. *)
  let archi = Disk.archi Disk.default_params in
  let printed = Format.asprintf "%a" Dpma_adl.Ast.pp archi in
  match Dpma_adl.Parser.parse_result printed with
  | Ok archi' -> Alcotest.(check bool) "roundtrip equal" true (archi = archi')
  | Error e -> Alcotest.failf "roundtrip failed: %s" e

let disk_suite =
  [
    Alcotest.test_case "disk parses, closed, live" `Quick test_disk_parses_and_is_closed;
    Alcotest.test_case "disk noninterference" `Quick test_disk_noninterference;
    Alcotest.test_case "disk break-even" `Quick test_disk_break_even;
    Alcotest.test_case "disk metrics consistency" `Quick test_disk_metrics_consistency;
    Alcotest.test_case "disk source roundtrip" `Quick test_disk_source_roundtrip;
  ]

let suite = suite @ disk_suite

(* Expected energy (power-unit-ms) the server draws until the battery
   empties, from the server's power states (busy 3, idle and awaking 2). *)
let expected_energy_delivered ?policy p =
  let el = Elaborate.elaborate (Battery.archi ?policy p) in
  let ctmc = Ctmc.of_lts (Lts.of_spec el.Elaborate.spec) in
  let power s =
    let enables = Ctmc.enables_action ctmc s in
    if enables "S.monitor_busy_server" then 3.0
    else if enables "S.monitor_idle_server" then 2.0
    else if enables "S.monitor_awaking_server" then 2.0
    else 0.0
  in
  Ctmc.expected_accumulated_reward ctmc ~reward:power
    ~until:(fun s -> Ctmc.enables_action ctmc s Battery.empty_monitor)

let test_battery_energy_conservation () =
  (* The battery delivers exactly its capacity worth of energy before it
     empties, DPM or not — a conservation law crossing the elaborator, the
     CTMC builder and the accumulated-reward solver. *)
  let p = { small_battery with Battery.capacity = 10 } in
  let expected = float_of_int p.Battery.capacity /. p.Battery.quantum_rate in
  let e_dpm = expected_energy_delivered p in
  Alcotest.(check (float 1e-6)) "with DPM" expected e_dpm;
  let e_trivial = expected_energy_delivered ~policy:Rpc.Trivial p in
  Alcotest.(check (float 1e-6)) "trivial policy" expected e_trivial

let conservation_suite =
  [
    Alcotest.test_case "battery energy conservation" `Quick
      test_battery_energy_conservation;
  ]

let suite = suite @ conservation_suite
