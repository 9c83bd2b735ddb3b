(* Tests for the reward-based measure companion language. *)

module Measure = Dpma_measures.Measure
module Rate = Dpma_pa.Rate
module Term = Dpma_pa.Term
module Lts = Dpma_lts.Lts
module Ctmc = Dpma_ctmc.Ctmc
module Sim = Dpma_sim.Sim
module Prng = Dpma_util.Prng

let check_close tol = Alcotest.(check (float tol))

let test_parse_paper_measures () =
  let measures = Measure.parse Dpma_models.Rpc.measures_source in
  Alcotest.(check int) "three measures" 3 (List.length measures);
  let names = List.map (fun m -> m.Measure.name) measures in
  Alcotest.(check (list string)) "names" [ "throughput"; "waiting"; "energy" ] names;
  let energy = List.nth measures 2 in
  Alcotest.(check int) "energy clauses" 3 (List.length energy.Measure.clauses);
  let c = List.hd energy.Measure.clauses in
  Alcotest.(check string) "clause action" "S.monitor_idle_server" c.Measure.action;
  Alcotest.(check bool) "state reward" true (c.Measure.kind = Measure.State_reward);
  Alcotest.(check (float 0.0)) "reward 2" 2.0 c.Measure.reward

let test_parse_trans_reward () =
  let ms = Measure.parse "MEASURE t IS ENABLED(a.b#c.d) -> TRANS_REWARD(0.5);" in
  match ms with
  | [ { Measure.name = "t"; clauses = [ c ]; divisor = [] } ] ->
      Alcotest.(check string) "channel action name" "a.b#c.d" c.Measure.action;
      Alcotest.(check bool) "trans" true (c.Measure.kind = Measure.Trans_reward);
      Alcotest.(check (float 0.0)) "reward" 0.5 c.Measure.reward
  | _ -> Alcotest.fail "unexpected parse"

let test_parse_errors () =
  let expect_error s =
    match Measure.parse_result s with
    | Ok _ -> Alcotest.failf "expected error for %S" s
    | Error _ -> ()
  in
  List.iter expect_error
    [
      "";
      "MEASURE x IS";
      "MEASURE x IS ENABLED(a) -> OTHER_REWARD(1);";
      "MEASURE x IS ENABLED(a) STATE_REWARD(1);";
      "MEASURE x IS ENABLED() -> STATE_REWARD(1);";
      "NOT_A_MEASURE y IS ENABLED(a) -> STATE_REWARD(1);";
    ]

let test_pp_parse_roundtrip () =
  let ms = Measure.parse Dpma_models.Rpc.measures_source in
  let printed =
    String.concat "\n" (List.map (fun m -> Format.asprintf "%a" Measure.pp m) ms)
  in
  match Measure.parse_result printed with
  | Ok ms' -> Alcotest.(check int) "same count" (List.length ms) (List.length ms')
  | Error e -> Alcotest.failf "roundtrip failed: %s" e

let test_constructors_validate () =
  Alcotest.check_raises "empty name" (Invalid_argument "Measure.measure: empty name")
    (fun () -> ignore (Measure.measure "" [ Measure.state_clause "a" 1.0 ]));
  Alcotest.check_raises "no clauses" (Invalid_argument "Measure.measure: no clauses")
    (fun () -> ignore (Measure.measure "m" []))

(* Shared toy chain: Up (fail exp 1) <-> Down (repair exp 3); pi = (0.75, 0.25). *)
let toy_lts =
  lazy
    (Lts.of_spec
       (Term.spec
          ~defs:
            [
              ("Up", Term.prefix "fail" (Rate.exp 1.0) (Term.call "Down"));
              ("Down", Term.prefix "repair" (Rate.exp 3.0) (Term.call "Up"));
            ]
          ~init:(Term.call "Up")))

let test_eval_ctmc () =
  let lts = Lazy.force toy_lts in
  let c = Ctmc.of_lts lts in
  let pi = Ctmc.steady_state c in
  let state_m = Measure.measure "up_time" [ Measure.state_clause "fail" 2.0 ] in
  check_close 1e-9 "2 * P(Up)" 1.5 (Measure.eval_ctmc c pi state_m);
  let trans_m = Measure.measure "repairs" [ Measure.trans_clause "repair" 1.0 ] in
  check_close 1e-9 "repair throughput" 0.75 (Measure.eval_ctmc c pi trans_m);
  let mixed =
    Measure.measure "mixed"
      [ Measure.state_clause "fail" 2.0; Measure.trans_clause "repair" 2.0 ]
  in
  check_close 1e-9 "state + impulse" 3.0 (Measure.eval_ctmc c pi mixed)

let test_compile_sim_mixed_measure () =
  let lts = Lazy.force toy_lts in
  let mixed =
    Measure.measure "mixed"
      [ Measure.state_clause "fail" 2.0; Measure.trans_clause "repair" 2.0 ]
  in
  let pure = Measure.measure "pure" [ Measure.state_clause "fail" 1.0 ] in
  let compiled = Measure.compile_sim lts [ mixed; pure ] in
  Alcotest.(check int) "three estimands" 3
    (List.length (Measure.estimands compiled));
  let summaries =
    Sim.replicate ~lts ~duration:20_000.0
      ~estimands:(Measure.estimands compiled)
      ~runs:5 ~seed:31 ()
  in
  match Measure.values compiled summaries with
  | [ ("mixed", m); ("pure", p) ] ->
      check_close 0.05 "mixed estimate" 3.0 m.Dpma_util.Stats.mean;
      check_close 0.02 "pure estimate" 0.75 p.Dpma_util.Stats.mean
  | _ -> Alcotest.fail "unexpected layout"

(* examples/specs/rpc.measures adds to rpc's three measures an energy per
   request that divides energy's state reward by throughput's impulse
   reward: its five clause lists are three distinct ones, so the
   simulator integrates three estimands and the quotient reads the shared
   summaries. *)
let test_compile_sim_shares_estimands () =
  let study = Dpma_models.Rpc.study Dpma_models.Rpc.default_params in
  let lts = Lts.of_spec study.Dpma_core.Pipeline.spec in
  let measures =
    Measure.parse
      (Dpma_models.Rpc.measures_source
      ^ {|MEASURE energy_per_request IS
            ENABLED(S.monitor_idle_server)    -> STATE_REWARD(2)
            ENABLED(S.monitor_busy_server)    -> STATE_REWARD(3)
            ENABLED(S.monitor_awaking_server) -> STATE_REWARD(2)
            DIVIDED_BY
            ENABLED(C.process_result_packet)  -> TRANS_REWARD(1);|})
  in
  Alcotest.(check (list string)) "rpc measures"
    [ "throughput"; "waiting"; "energy"; "energy_per_request" ]
    (List.map (fun m -> m.Measure.name) measures);
  let compiled = Measure.compile_sim lts measures in
  Alcotest.(check int) "three estimands" 3
    (List.length (Measure.estimands compiled));
  let summaries =
    Sim.replicate ~lts ~duration:2_000.0
      ~estimands:(Measure.estimands compiled)
      ~runs:3 ~seed:33 ()
  in
  match Measure.values compiled summaries with
  | [ (_, throughput); _; (_, energy); (_, per_request) ] ->
      check_close 1e-12 "energy / throughput"
        (energy.Dpma_util.Stats.mean /. throughput.Dpma_util.Stats.mean)
        per_request.Dpma_util.Stats.mean
  | _ -> Alcotest.fail "unexpected layout"

let test_sim_agrees_with_ctmc_on_measures () =
  let lts = Lazy.force toy_lts in
  let c = Ctmc.of_lts lts in
  let pi = Ctmc.steady_state c in
  let ms = Measure.parse "MEASURE m IS ENABLED(repair) -> STATE_REWARD(4);" in
  let m = List.hd ms in
  let reference = Measure.eval_ctmc c pi m in
  let compiled = Measure.compile_sim lts [ m ] in
  let summaries =
    Sim.replicate ~lts ~duration:20_000.0
      ~estimands:(Measure.estimands compiled)
      ~runs:5 ~seed:32 ()
  in
  let value = (snd (List.hd (Measure.values compiled summaries))).Dpma_util.Stats.mean in
  check_close 0.05 "analytic vs simulated" reference value

let suite =
  [
    Alcotest.test_case "parse paper measures" `Quick test_parse_paper_measures;
    Alcotest.test_case "parse trans reward" `Quick test_parse_trans_reward;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "pp/parse roundtrip" `Quick test_pp_parse_roundtrip;
    Alcotest.test_case "constructor validation" `Quick test_constructors_validate;
    Alcotest.test_case "eval against CTMC" `Quick test_eval_ctmc;
    Alcotest.test_case "compile mixed measure" `Quick test_compile_sim_mixed_measure;
    Alcotest.test_case "sim agrees with CTMC" `Quick test_sim_agrees_with_ctmc_on_measures;
    Alcotest.test_case "equal clause lists share an estimand" `Quick
      test_compile_sim_shares_estimands;
  ]

(* ------------------------------------------------------------------ *)
(* Quotient measures (DIVIDED_BY) *)

let test_quotient_parse_and_eval () =
  let src =
    {|MEASURE up_per_repair IS
        ENABLED(fail) -> STATE_REWARD(2)
        DIVIDED_BY
        ENABLED(repair) -> TRANS_REWARD(1);|}
  in
  let m = List.hd (Measure.parse src) in
  Alcotest.(check int) "one divisor clause" 1 (List.length m.Measure.divisor);
  let lts = Lazy.force toy_lts in
  let c = Ctmc.of_lts lts in
  let pi = Ctmc.steady_state c in
  (* 2*P(up) / throughput(repair) = 1.5 / 0.75 = 2. *)
  check_close 1e-9 "quotient value" 2.0 (Measure.eval_ctmc c pi m)

let test_quotient_simulation () =
  let src =
    {|MEASURE up_per_repair IS
        ENABLED(fail) -> STATE_REWARD(2)
        DIVIDED_BY
        ENABLED(repair) -> TRANS_REWARD(1);|}
  in
  let m = List.hd (Measure.parse src) in
  let lts = Lazy.force toy_lts in
  let compiled = Measure.compile_sim lts [ m ] in
  Alcotest.(check int) "two estimands" 2 (List.length (Measure.estimands compiled));
  let summaries =
    Sim.replicate ~lts ~duration:20_000.0
      ~estimands:(Measure.estimands compiled)
      ~runs:5 ~seed:77 ()
  in
  match Measure.values compiled summaries with
  | [ (_, s) ] ->
      check_close 0.05 "simulated quotient" 2.0 s.Dpma_util.Stats.mean;
      Alcotest.(check bool) "interval propagated" true
        (s.Dpma_util.Stats.half_width > 0.0
        && s.Dpma_util.Stats.half_width < 0.5)
  | _ -> Alcotest.fail "unexpected layout"

let test_quotient_pp_roundtrip () =
  let m =
    Measure.quotient_measure "q"
      [ Measure.state_clause "a" 2.0 ]
      [ Measure.trans_clause "b" 1.0 ]
  in
  let printed = Format.asprintf "%a" Measure.pp m in
  match Measure.parse_result printed with
  | Ok [ m' ] -> Alcotest.(check bool) "roundtrip" true (m = m')
  | Ok _ -> Alcotest.fail "expected one measure"
  | Error e -> Alcotest.failf "roundtrip error: %s" e

let test_quotient_constructor_validation () =
  Alcotest.check_raises "empty divisor"
    (Invalid_argument "Measure.quotient_measure: empty clause list") (fun () ->
      ignore (Measure.quotient_measure "q" [ Measure.state_clause "a" 1.0 ] []))

let quotient_suite =
  [
    Alcotest.test_case "quotient parse/eval" `Quick test_quotient_parse_and_eval;
    Alcotest.test_case "quotient simulation" `Quick test_quotient_simulation;
    Alcotest.test_case "quotient pp roundtrip" `Quick test_quotient_pp_roundtrip;
    Alcotest.test_case "quotient validation" `Quick test_quotient_constructor_validation;
  ]

let suite = suite @ quotient_suite
