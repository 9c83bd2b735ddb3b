(* Golden regression tests: the Markovian figure values are fully
   deterministic (CTMC solutions), so their exact values are pinned here
   against the run recorded in EXPERIMENTS.md / bench_output.txt. A failure
   means an algorithmic change altered the reproduced results. *)

module Figures = Dpma_models.Figures
module Rpc = Dpma_models.Rpc
module Streaming = Dpma_models.Streaming
module Battery = Dpma_models.Battery
module Disk = Dpma_models.Disk

let close = Alcotest.(check (float 5e-4))

let test_fig3_markov_goldens () =
  let rows = Figures.fig3_markov ~timeouts:[ 0.1; 5.0; 25.0 ] () in
  (match rows with
  | [ r1; r2; r3 ] ->
      close "thr @0.1" 0.06944 r1.Figures.with_dpm.Rpc.throughput;
      close "e/req @0.1" 9.4275 r1.Figures.with_dpm.Rpc.energy_per_request;
      close "thr @5" 0.07322 r2.Figures.with_dpm.Rpc.throughput;
      close "wait @5" 3.4613 r2.Figures.with_dpm.Rpc.waiting_time;
      close "e/req @5" 13.4503 r2.Figures.with_dpm.Rpc.energy_per_request;
      close "thr @25" 0.08026 r3.Figures.with_dpm.Rpc.throughput;
      close "no-DPM thr" 0.08658 r1.Figures.without_dpm.Rpc.throughput;
      close "no-DPM e/req" 23.0279 r1.Figures.without_dpm.Rpc.energy_per_request
  | _ -> Alcotest.fail "expected three rows")

let test_fig4_markov_goldens () =
  let rows = Figures.fig4_markov ~awake_periods:[ 100.0; 800.0 ] () in
  match rows with
  | [ r100; r800 ] ->
      close "e/fr @100" 26.723 r100.Figures.s_with_dpm.Streaming.energy_per_frame;
      close "qual @100" 0.8810 r100.Figures.s_with_dpm.Streaming.quality;
      close "loss @100" 0.0991 r100.Figures.s_with_dpm.Streaming.loss;
      close "e/fr @800" 12.869 r800.Figures.s_with_dpm.Streaming.energy_per_frame;
      close "qual @800" 0.5186 r800.Figures.s_with_dpm.Streaming.quality;
      close "no-DPM e/fr" 68.367 r100.Figures.s_without_dpm.Streaming.energy_per_frame
  | _ -> Alcotest.fail "expected two rows"

let test_battery_goldens () =
  let l =
    Battery.expected_lifetime
      { Battery.default_params with
        Battery.rpc = { Rpc.default_params with Rpc.shutdown_mean = 5.0 } }
  in
  Alcotest.(check (float 0.02)) "life with DPM @5ms" 40.16 l.Battery.with_dpm;
  Alcotest.(check (float 0.02)) "life without DPM" 20.08 l.Battery.without_dpm

let test_disk_goldens () =
  let w, wo = Disk.compare_dpm Disk.default_params in
  Alcotest.(check (float 2.0)) "disk e/req with DPM" 13997.1 w.Disk.energy_per_request;
  Alcotest.(check (float 2.0)) "disk e/req without" 27015.6 wo.Disk.energy_per_request

let test_sec3_formula_golden () =
  (* The diagnostic formula for the simplified rpc must stay exactly the
     paper's (modulo whitespace). *)
  let s = Figures.sec3_noninterference () in
  match s.Figures.simplified_rpc with
  | Dpma_core.Noninterference.Secure -> Alcotest.fail "must be insecure"
  | Dpma_core.Noninterference.Insecure f ->
      let canonical =
        Dpma_lts.Hml.to_string ~weak:true f
        |> String.to_seq
        |> Seq.filter (fun c -> c <> ' ' && c <> '\n')
        |> String.of_seq
      in
      Alcotest.(check string) "paper formula"
        "EXISTS_WEAK_TRANS(LABEL(C.send_rpc_packet#RCS.get_packet);REACHED_STATE_SAT(NOT(EXISTS_WEAK_TRANS(LABEL(RSC.deliver_packet#C.receive_result_packet);REACHED_STATE_SAT(TRUE)))))"
        canonical

(* General-phase goldens: the simulator's estimates for the default rpc
   and streaming studies, at reduced run counts, pinned at %.17g. They
   were recorded with the string-keyed engine that preceded the packed
   one, so any change to scheduling, PRNG draw order or reward
   accumulation shows up here. Each line is [tag measure mean half-width]
   ([valid] lines add the CTMC value, relative error and verdict). *)

module General = Dpma_core.General
module Pipeline = Dpma_core.Pipeline
module Markov = Dpma_core.Markov
module Lts = Dpma_lts.Lts
module Stats = Dpma_util.Stats

let golden_sim_params jobs =
  { General.default_sim_params with
    General.runs = 4; duration = 10_000.0; warmup = 1_000.0; jobs = Some jobs }

let sim_golden_lines ~jobs (study : Pipeline.study) =
  let g = Printf.sprintf "%.17g" in
  let params = golden_sim_params jobs in
  let lts = Lts.of_spec study.Pipeline.spec in
  let lts_without = Markov.without_dpm lts ~high:study.Pipeline.high in
  let timing = General.timing_of_list study.Pipeline.general_timings in
  let measures = study.Pipeline.measures in
  let estimate tag (e : General.estimate) =
    Printf.sprintf "%s %s %s %s" tag e.General.measure
      (g e.General.summary.Stats.mean) (g e.General.summary.Stats.half_width)
  in
  let v = General.validate lts ~timing ~measures params in
  List.map (estimate "dpm") (General.simulate lts ~timing ~measures params)
  @ List.map (estimate "nodpm")
      (General.simulate lts_without ~timing ~measures params)
  @ List.map
      (fun (l : General.validation_line) ->
        Printf.sprintf "valid %s %s %s %s %s %b" l.General.name
          (g l.General.markovian) (g l.General.simulated.Stats.mean)
          (g l.General.simulated.Stats.half_width)
          (g l.General.relative_error) l.General.within_interval)
      v.General.lines
  @ [ Printf.sprintf "consistent %b" v.General.consistent ]

let rpc_sim_goldens =
  [
    "dpm throughput 0.068675 5.8674611671894681e-05";
    "dpm waiting 0.33414372392999325 0.00035272126943622936";
    "dpm energy 1.2877720389558487 0.0023030630107369848";
    "nodpm throughput 0.08635000000000001 6.7751605686733172e-05";
    "nodpm waiting 0.16254751275700746 0.00050718381174553442";
    "nodpm energy 2.0176600000000073 7.4218165482689658e-05";
    "valid throughput 0.073222587440749873 0.071674999999999989 0.0021282525372146965 0.021135383149388953 true";
    "valid waiting 0.25344851076447206 0.2524156264351321 0.0060522297035601825 0.004075322148173157 true";
    "valid energy 0.984868107255916 0.98079921351471311 0.018786906868840877 0.0041314097910428128 true";
    "consistent true";
  ]

let streaming_sim_goldens =
  [
    "dpm energy 0.287215 0.0053433771870670336";
    "dpm frames 0.01465 0.00015149719590028357";
    "dpm takes 0.0149 0";
    "dpm misses 0 0";
    "dpm sent 0.014999999999999999 0";
    "dpm lost_ap 0 0";
    "dpm lost_b 0 0";
    "nodpm energy 1 0";
    "nodpm frames 0.014675000000000001 0.00011235332750349191";
    "nodpm takes 0.0149 0";
    "nodpm misses 0 0";
    "nodpm sent 0.014999999999999999 0";
    "nodpm lost_ap 0 0";
    "nodpm lost_b 0 0";
    "valid energy 0.38942076545296539 0.36076524941278321 0.039399936110596952 0.073584971789706022 true";
    "valid frames 0.014572409419751856 0.0149 0.0014966818886080408 0.022480193275665056 true";
    "valid takes 0.013148841574710851 0.012675000000000001 0.00081513375625447853 0.036036754418137473 true";
    "valid misses 0.0017765315596175186 0.001075 0.00056176663751745929 0.39488831809357555 true";
    "valid sent 0.014925373134328361 0.015300000000000001 0.0011049952486108365 0.025099999999999855 true";
    "valid lost_ap 5.5567603974708271e-05 0.000175 0.00041072228170324474 2.1493170027567081 true";
    "valid lost_b 0.0014235678451300473 0.002075 0.001232166845109734 0.45760527473170232 true";
    "consistent true";
  ]

(* [valid] lines whose Markovian fields (the CTMC value and the relative
   error derived from it) moved in the last digits when the CTMC engine
   became the packed core: the large with-DPM streaming BSCC is solved by
   Gauss–Seidel, whose summation order changed. Each pair is (previous,
   current) line. Every other field must stay byte-identical, and each
   Markovian field within 1e-10 |previous| + 1e-15 of its previous value
   ([check_repin]). *)
let streaming_repins =
  [
    ( "valid frames 0.014572409419751856 0.0149 0.0014966818886080408 0.022480193275665056 true",
      "valid frames 0.014572409419751855 0.0149 0.0014966818886080408 0.022480193275665177 true" );
    ( "valid takes 0.013148841574710851 0.012675000000000001 0.00081513375625447853 0.036036754418137473 true",
      "valid takes 0.013148841574710853 0.012675000000000001 0.00081513375625447853 0.036036754418137598 true" );
    ( "valid misses 0.0017765315596175186 0.001075 0.00056176663751745929 0.39488831809357555 true",
      "valid misses 0.0017765315596175182 0.001075 0.00056176663751745929 0.39488831809357544 true" );
    ( "valid sent 0.014925373134328361 0.015300000000000001 0.0011049952486108365 0.025099999999999855 true",
      "valid sent 0.01492537313432836 0.015300000000000001 0.0011049952486108365 0.025099999999999973 true" );
    ( "valid lost_ap 5.5567603974708271e-05 0.000175 0.00041072228170324474 2.1493170027567081 true",
      "valid lost_ap 5.5567603974708278e-05 0.000175 0.00041072228170324474 2.1493170027567077 true" );
  ]

let check_repin (previous, current) =
  let p = String.split_on_char ' ' previous
  and c = String.split_on_char ' ' current in
  Alcotest.(check int) "field count" (List.length p) (List.length c);
  List.iteri
    (fun i (a, b) ->
      (* Fields 2 and 5 of a [valid] line: CTMC value, relative error. *)
      if i = 2 || i = 5 then begin
        let a = float_of_string a and b = float_of_string b in
        if Float.abs (b -. a) > (1e-10 *. Float.abs a) +. 1e-15 then
          Alcotest.failf "%s: %.17g moved beyond 1e-10 relative from %.17g"
            current b a
      end
      else Alcotest.(check string) "non-Markovian field" a b)
    (List.combine p c)

let repinned repins lines =
  List.map (fun l -> Option.value ~default:l (List.assoc_opt l repins)) lines

let check_sim_goldens ?(repins = []) study expected () =
  List.iter check_repin repins;
  List.iter
    (fun jobs ->
      Alcotest.(check (list string))
        (Printf.sprintf "jobs=%d" jobs)
        (repinned repins expected)
        (sim_golden_lines ~jobs study))
    [ 1; 2 ]

let test_rpc_sim_goldens =
  check_sim_goldens (Rpc.study ~mode:Rpc.General Rpc.default_params)
    rpc_sim_goldens

let test_streaming_sim_goldens =
  check_sim_goldens ~repins:streaming_repins
    (Streaming.study ~mode:Streaming.General Streaming.default_params)
    streaming_sim_goldens

let suite =
  [
    Alcotest.test_case "Fig. 3 Markovian goldens" `Quick test_fig3_markov_goldens;
    Alcotest.test_case "Fig. 4 Markovian goldens" `Slow test_fig4_markov_goldens;
    Alcotest.test_case "battery goldens" `Quick test_battery_goldens;
    Alcotest.test_case "disk goldens" `Quick test_disk_goldens;
    Alcotest.test_case "Sect. 3.1 formula golden" `Quick test_sec3_formula_golden;
    Alcotest.test_case "rpc general-phase goldens" `Quick test_rpc_sim_goldens;
    Alcotest.test_case "streaming general-phase goldens" `Quick
      test_streaming_sim_goldens;
  ]
