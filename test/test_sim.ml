(* Tests for the GSMP simulator: agreement with analytic chains,
   deterministic timing, immediate resolution, clock memory, estimators. *)

module Rate = Dpma_pa.Rate
module Term = Dpma_pa.Term
module Lts = Dpma_lts.Lts
module Ctmc = Dpma_ctmc.Ctmc
module Sim = Dpma_sim.Sim
module Dist = Dpma_dist.Dist
module Prng = Dpma_util.Prng
module Stats = Dpma_util.Stats

let check_close tol = Alcotest.(check (float tol))

let lts_of_defs defs init = Lts.of_spec (Term.spec ~defs ~init)

(* Time share of the states enabling the observable action [name]. *)
let time_enabling lts name =
  let l = Lts.obs name in
  Sim.Time_average (fun s -> if Lts.enables_label lts s l then 1.0 else 0.0)

let run ?timing lts estimands ~duration ~seed =
  (Sim.run ?timing ~lts ~duration ~estimands (Prng.create seed)).Sim.values

let test_timing_of_rate () =
  (match Sim.timing_of_rate (Rate.exp 4.0) with
  | Sim.Timed (Dist.Exponential m) -> check_close 1e-12 "mean inverted" 0.25 m
  | _ -> Alcotest.fail "expected Timed exponential");
  (match Sim.timing_of_rate (Rate.imm ~prio:2 ~weight:3.0 ()) with
  | Sim.Immediate { prio = 2; weight } -> check_close 1e-12 "weight" 3.0 weight
  | _ -> Alcotest.fail "expected Immediate");
  Alcotest.check_raises "passive rejected"
    (Invalid_argument "Sim.timing_of_rate: passive action cannot be timed")
    (fun () -> ignore (Sim.timing_of_rate (Rate.passive ())))

let test_two_state_exponential_agrees_with_ctmc () =
  let defs =
    [
      ("Up", Term.prefix "fail" (Rate.exp 1.0) (Term.call "Down"));
      ("Down", Term.prefix "repair" (Rate.exp 4.0) (Term.call "Up"));
    ]
  in
  let lts = lts_of_defs defs (Term.call "Up") in
  let estimands =
    [
      time_enabling lts "fail";
      Sim.Rate_of (fun a -> if a = "repair" then 1.0 else 0.0);
    ]
  in
  let values = run lts estimands ~duration:50_000.0 ~seed:1 in
  check_close 0.01 "P(up) = 0.8" 0.8 values.(0);
  check_close 0.01 "repair throughput = 0.8" 0.8 values.(1)

let test_deterministic_cycle_exact () =
  let defs =
    [
      ("A", Term.prefix "a" (Rate.exp 1.0) (Term.call "B"));
      ("B", Term.prefix "b" (Rate.exp 1.0) (Term.call "A"));
    ]
  in
  let lts = lts_of_defs defs (Term.call "A") in
  let timing = function
    | "a" -> Some (Sim.Timed (Dist.Deterministic 2.0))
    | "b" -> Some (Sim.Timed (Dist.Deterministic 3.0))
    | _ -> None
  in
  let estimands =
    [
      Sim.Rate_of (fun x -> if x = "a" then 1.0 else 0.0);
      time_enabling lts "a";
    ]
  in
  let values = run ~timing lts estimands ~duration:50_000.0 ~seed:2 in
  check_close 1e-3 "cycle rate 1/5" 0.2 values.(0);
  check_close 1e-3 "fraction in A = 0.4" 0.4 values.(1)

let test_immediate_weighted_branching () =
  let defs =
    [
      ( "P",
        Term.prefix "go" (Rate.exp 1.0)
          (Term.choice
             [
               Term.prefix "left" (Rate.imm ~weight:1.0 ()) (Term.call "P");
               Term.prefix "right" (Rate.imm ~weight:4.0 ()) (Term.call "P");
             ]) );
    ]
  in
  let lts = lts_of_defs defs (Term.call "P") in
  let estimands =
    [ Sim.Ratio_of_counts
        ((fun a -> if a = "left" then 1.0 else 0.0),
         (fun a -> if a = "left" || a = "right" then 1.0 else 0.0)) ]
  in
  let values = run lts estimands ~duration:50_000.0 ~seed:3 in
  check_close 0.01 "left fraction 0.2" 0.2 values.(0)

let test_immediate_priority_preempts () =
  let defs =
    [
      ( "P",
        Term.prefix "go" (Rate.exp 1.0)
          (Term.choice
             [
               Term.prefix "hi" (Rate.imm ~prio:2 ()) (Term.call "P");
               Term.prefix "lo" (Rate.imm ~prio:1 ()) (Term.call "P");
             ]) );
    ]
  in
  let lts = lts_of_defs defs (Term.call "P") in
  let estimands = [ Sim.Rate_of (fun a -> if a = "lo" then 1.0 else 0.0) ] in
  let values = run lts estimands ~duration:10_000.0 ~seed:4 in
  check_close 1e-12 "low priority never fires" 0.0 values.(0)

let test_race_deterministic_rates () =
  (* Race of det(2) vs det(3) clocks that both stay enabled: with enabling
     memory each clock fires at its own period's rate — fast at 1/2, slow
     at 1/3 — because the loser keeps its residual lifetime. *)
  let defs =
    [
      ( "P",
        Term.choice
          [
            Term.prefix "fast" (Rate.exp 1.0) (Term.call "P");
            Term.prefix "slow" (Rate.exp 1.0) (Term.call "P");
          ] );
    ]
  in
  let lts = lts_of_defs defs (Term.call "P") in
  let timing = function
    | "fast" -> Some (Sim.Timed (Dist.Deterministic 2.0))
    | "slow" -> Some (Sim.Timed (Dist.Deterministic 3.0))
    | _ -> None
  in
  let estimands =
    [
      Sim.Rate_of (fun a -> if a = "fast" then 1.0 else 0.0);
      Sim.Rate_of (fun a -> if a = "slow" then 1.0 else 0.0);
    ]
  in
  let values = run ~timing lts estimands ~duration:30_000.0 ~seed:5 in
  check_close 1e-3 "fast at 1/2" 0.5 values.(0);
  check_close 1e-3 "slow at 1/3" (1.0 /. 3.0) values.(1)

let test_enabling_memory () =
  (* B fires every 2 time units; A (period 5) stays enabled across B's
     firings, so with enabling memory A still fires at rate 1/5. Without
     memory (resampling after each B) A would never fire. *)
  let defs =
    [
      ( "P",
        Term.choice
          [
            Term.prefix "a" (Rate.exp 1.0) (Term.call "P");
            Term.prefix "b" (Rate.exp 1.0) (Term.call "P");
          ] );
    ]
  in
  let lts = lts_of_defs defs (Term.call "P") in
  let timing = function
    | "a" -> Some (Sim.Timed (Dist.Deterministic 5.0))
    | "b" -> Some (Sim.Timed (Dist.Deterministic 2.0))
    | _ -> None
  in
  let estimands = [ Sim.Rate_of (fun x -> if x = "a" then 1.0 else 0.0) ] in
  let values = run ~timing lts estimands ~duration:50_000.0 ~seed:6 in
  check_close 1e-3 "a fires at 1/5 despite b preemptions" 0.2 values.(0)

let test_clock_dropped_when_disabled () =
  (* In state P both a and switch race; after switch (to Q, where a is
     disabled) and return, a is resampled. With det timings: switch at 1,
     return at 1, a at 3: a never accumulates enough enabled time, so it
     never fires. *)
  let defs =
    [
      ( "P",
        Term.choice
          [
            Term.prefix "a" (Rate.exp 1.0) (Term.call "P");
            Term.prefix "switch" (Rate.exp 1.0) (Term.call "Q");
          ] );
      ("Q", Term.prefix "return" (Rate.exp 1.0) (Term.call "P"));
    ]
  in
  let lts = lts_of_defs defs (Term.call "P") in
  let timing = function
    | "a" -> Some (Sim.Timed (Dist.Deterministic 3.0))
    | "switch" -> Some (Sim.Timed (Dist.Deterministic 1.0))
    | "return" -> Some (Sim.Timed (Dist.Deterministic 1.0))
    | _ -> None
  in
  let estimands = [ Sim.Rate_of (fun x -> if x = "a" then 1.0 else 0.0) ] in
  let values = run ~timing lts estimands ~duration:10_000.0 ~seed:7 in
  check_close 1e-12 "a preempted forever" 0.0 values.(0)

let test_deadlock_graceful () =
  let lts = lts_of_defs [] (Term.prefix "a" (Rate.exp 1.0) Term.stop) in
  let estimands =
    [
      Sim.Time_average
        (fun s -> if lts.Lts.row.(s + 1) = lts.Lts.row.(s) then 1.0 else 0.0);
    ]
  in
  let result = Sim.run ~lts ~duration:100.0 ~estimands (Prng.create 8) in
  Alcotest.(check bool) "dead fraction large" true (result.Sim.values.(0) > 0.8);
  Alcotest.(check int) "exactly one event" 1 result.Sim.events

let test_livelock_detected () =
  let defs = [ ("P", Term.prefix "spin" (Rate.imm ()) (Term.call "P")) ] in
  let lts = lts_of_defs defs (Term.call "P") in
  (try
     ignore (Sim.run ~lts ~duration:1.0 ~estimands:[] (Prng.create 9));
     Alcotest.fail "expected livelock error"
   with Sim.Simulation_error _ -> ())

let test_passive_without_override_rejected () =
  let defs = [ ("P", Term.prefix "p" (Rate.passive ()) (Term.call "P")) ] in
  let lts = lts_of_defs defs (Term.call "P") in
  (try
     ignore (Sim.run ~lts ~duration:1.0 ~estimands:[] (Prng.create 10));
     Alcotest.fail "expected passive error"
   with Sim.Simulation_error _ -> ())

let test_ratio_zero_denominator () =
  let lts = lts_of_defs [] (Term.prefix "a" (Rate.exp 1.0) Term.stop) in
  let estimands =
    [ Sim.Ratio_of_counts ((fun _ -> 1.0), (fun _ -> 0.0)) ]
  in
  let values = (Sim.run ~lts ~duration:10.0 ~estimands (Prng.create 11)).Sim.values in
  check_close 1e-12 "0/0 reported as 0" 0.0 values.(0)

let test_warmup_excludes_initial_transient () =
  (* Start in a state visited exactly once; with warmup the time-average of
     that state must be ~0. *)
  let defs =
    [
      ("Start", Term.prefix "begin" (Rate.exp 10.0) (Term.call "Loop"));
      ("Loop", Term.prefix "tick" (Rate.exp 1.0) (Term.call "Loop"));
    ]
  in
  let lts = lts_of_defs defs (Term.call "Start") in
  let estimands =
    [
      time_enabling lts "begin";
      Sim.Rate_of (fun a -> if a = "begin" then 1.0 else 0.0);
    ]
  in
  let r = Sim.run ~warmup:100.0 ~lts ~duration:1000.0 ~estimands (Prng.create 12) in
  check_close 1e-6 "start state excluded" 0.0 r.Sim.values.(0);
  check_close 1e-6 "begin fired before window" 0.0 r.Sim.values.(1)

let test_replicate_confidence_interval () =
  let defs =
    [
      ("Up", Term.prefix "fail" (Rate.exp 1.0) (Term.call "Down"));
      ("Down", Term.prefix "repair" (Rate.exp 4.0) (Term.call "Up"));
    ]
  in
  let lts = lts_of_defs defs (Term.call "Up") in
  let estimands =
    [ time_enabling lts "fail" ]
  in
  let summaries =
    Sim.replicate ~lts ~duration:5_000.0 ~estimands ~runs:20 ~seed:99 ()
  in
  let s = summaries.(0) in
  Alcotest.(check int) "20 runs" 20 s.Stats.n;
  Alcotest.(check bool) "interval brackets 0.8" true
    (abs_float (s.Stats.mean -. 0.8) < 3.0 *. s.Stats.half_width +. 0.01);
  Alcotest.(check bool) "narrow interval" true (s.Stats.half_width < 0.05)

let test_replicate_reproducible () =
  let defs = [ ("P", Term.prefix "t" (Rate.exp 1.0) (Term.call "P")) ] in
  let lts = lts_of_defs defs (Term.call "P") in
  let estimands = [ Sim.Rate_of (fun _ -> 1.0) ] in
  let a = Sim.replicate ~lts ~duration:100.0 ~estimands ~runs:5 ~seed:7 () in
  let b = Sim.replicate ~lts ~duration:100.0 ~estimands ~runs:5 ~seed:7 () in
  Alcotest.(check (float 0.0)) "same seed, same estimate" a.(0).Stats.mean
    b.(0).Stats.mean

let test_exponential_assignment_transform () =
  let base = function
    | "x" -> Some (Sim.Timed (Dist.Deterministic 4.0))
    | "i" -> Some (Sim.Immediate { prio = 1; weight = 1.0 })
    | _ -> None
  in
  let exp_assign = Sim.exponential_assignment base in
  (match exp_assign "x" with
  | Some (Sim.Timed (Dist.Exponential m)) -> check_close 1e-12 "mean kept" 4.0 m
  | _ -> Alcotest.fail "expected exponentialized timing");
  (match exp_assign "i" with
  | Some (Sim.Immediate _) -> ()
  | _ -> Alcotest.fail "immediates unchanged");
  Alcotest.(check bool) "None passthrough" true (exp_assign "other" = None)

(* Cross-validation property: for random 3-state exponential rings, the
   simulator's time-averages agree with the CTMC solution. *)
let prop_sim_matches_ctmc =
  QCheck.Test.make ~count:10 ~name:"simulation agrees with CTMC on random rings"
    QCheck.(triple (float_range 0.5 3.0) (float_range 0.5 3.0) (float_range 0.5 3.0))
    (fun (r1, r2, r3) ->
      let defs =
        [
          ("A", Term.prefix "x" (Rate.exp r1) (Term.call "B"));
          ("B", Term.prefix "y" (Rate.exp r2) (Term.call "C"));
          ("C", Term.prefix "z" (Rate.exp r3) (Term.call "A"));
        ]
      in
      let lts = lts_of_defs defs (Term.call "A") in
      let c = Ctmc.of_lts lts in
      let pi = Ctmc.steady_state c in
      let estimands =
        [ time_enabling lts "x" ]
      in
      let values = run lts estimands ~duration:20_000.0 ~seed:13 in
      abs_float (values.(0) -. pi.(0)) < 0.03)

let qtests = [ prop_sim_matches_ctmc ]

let suite =
  [
    Alcotest.test_case "timing_of_rate" `Quick test_timing_of_rate;
    Alcotest.test_case "exp chain matches CTMC" `Quick test_two_state_exponential_agrees_with_ctmc;
    Alcotest.test_case "deterministic cycle" `Quick test_deterministic_cycle_exact;
    Alcotest.test_case "immediate weighted branching" `Quick test_immediate_weighted_branching;
    Alcotest.test_case "immediate priority" `Quick test_immediate_priority_preempts;
    Alcotest.test_case "deterministic race rates" `Quick test_race_deterministic_rates;
    Alcotest.test_case "enabling memory" `Quick test_enabling_memory;
    Alcotest.test_case "clock dropped when disabled" `Quick test_clock_dropped_when_disabled;
    Alcotest.test_case "deadlock graceful" `Quick test_deadlock_graceful;
    Alcotest.test_case "livelock detected" `Quick test_livelock_detected;
    Alcotest.test_case "passive rejected" `Quick test_passive_without_override_rejected;
    Alcotest.test_case "ratio zero denominator" `Quick test_ratio_zero_denominator;
    Alcotest.test_case "warmup window" `Quick test_warmup_excludes_initial_transient;
    Alcotest.test_case "replication CI" `Quick test_replicate_confidence_interval;
    Alcotest.test_case "replication reproducible" `Quick test_replicate_reproducible;
    Alcotest.test_case "exponential assignment" `Quick test_exponential_assignment_transform;
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) qtests

(* ------------------------------------------------------------------ *)
(* Segments and batch means                                             *)

let test_run_segments_split () =
  (* det(1) alternation between A and B: each unit-length segment sees
     exactly one firing; the time-average of A over [0,1) is 1. *)
  let defs =
    [
      ("A", Term.prefix "a" (Rate.exp 1.0) (Term.call "B"));
      ("B", Term.prefix "b" (Rate.exp 1.0) (Term.call "A"));
    ]
  in
  let lts = lts_of_defs defs (Term.call "A") in
  let timing = function
    | "a" | "b" -> Some (Sim.Timed (Dist.Deterministic 1.0))
    | _ -> None
  in
  let estimands =
    [
      time_enabling lts "a";
      Sim.Rate_of (fun _ -> 1.0);
    ]
  in
  let values, events =
    Sim.run_segments ~timing ~lts ~boundaries:[| 1.0; 2.0; 3.0 |] ~estimands
      (Prng.create 1)
  in
  Alcotest.(check int) "three segments" 3 (Array.length values);
  check_close 1e-9 "segment 0 in A" 1.0 values.(0).(0);
  check_close 1e-9 "segment 1 in B" 0.0 values.(1).(0);
  check_close 1e-9 "segment 2 in A" 1.0 values.(2).(0);
  Alcotest.(check int) "two firings before horizon" 2 events;
  check_close 1e-9 "per-segment rate" 1.0 values.(1).(1)

let test_batch_means_agrees () =
  let defs =
    [
      ("Up", Term.prefix "fail" (Rate.exp 1.0) (Term.call "Down"));
      ("Down", Term.prefix "repair" (Rate.exp 4.0) (Term.call "Up"));
    ]
  in
  let lts = lts_of_defs defs (Term.call "Up") in
  let estimands =
    [ time_enabling lts "fail" ]
  in
  let s =
    Sim.batch_means ~warmup:100.0 ~lts ~batches:20 ~batch_duration:1_000.0
      ~estimands ~seed:5 ()
  in
  Alcotest.(check int) "20 batches" 20 s.(0).Stats.n;
  check_close 0.02 "batch means estimate" 0.8 s.(0).Stats.mean;
  Alcotest.(check bool) "CI computed" true (s.(0).Stats.half_width > 0.0)

let test_batch_means_matches_replications () =
  let defs = [ ("P", Term.prefix "t" (Rate.exp 2.0) (Term.call "P")) ] in
  let lts = lts_of_defs defs (Term.call "P") in
  let estimands = [ Sim.Rate_of (fun _ -> 1.0) ] in
  let bm = Sim.batch_means ~lts ~batches:10 ~batch_duration:2_000.0 ~estimands ~seed:8 () in
  let rep = Sim.replicate ~lts ~duration:2_000.0 ~estimands ~runs:10 ~seed:8 () in
  check_close 0.05 "both estimate rate 2" 2.0 bm.(0).Stats.mean;
  check_close 0.05 "replications too" 2.0 rep.(0).Stats.mean

let segment_suite =
  [
    Alcotest.test_case "run_segments split" `Quick test_run_segments_split;
    Alcotest.test_case "batch means" `Quick test_batch_means_agrees;
    Alcotest.test_case "batch means vs replications" `Quick
      test_batch_means_matches_replications;
  ]

let suite = suite @ segment_suite

(* Simulation-based first passage *)

let test_sim_first_passage_matches_analytic () =
  (* Birth-death 0 <-> 1 <-> 2, births 1, deaths 2: E[T(0 -> 2)] = 4. *)
  let defs =
    [
      ("S0", Term.prefix "up" (Rate.exp 1.0) (Term.call "S1"));
      ( "S1",
        Term.choice
          [
            Term.prefix "up" (Rate.exp 1.0) (Term.call "S2");
            Term.prefix "down" (Rate.exp 2.0) (Term.call "S0");
          ] );
      ("S2", Term.prefix "down" (Rate.exp 2.0) (Term.call "S1"));
    ]
  in
  let lts = lts_of_defs defs (Term.call "S0") in
  (* Identify S2 as the state enabling only "down". *)
  let target s =
    Lts.enables_label lts s (Lts.obs "down")
    && not (Lts.enables_label lts s (Lts.obs "up"))
  in
  let summary, censored =
    Sim.first_passage ~lts ~target ~runs:400 ~seed:21 ()
  in
  Alcotest.(check int) "no censoring" 0 censored;
  check_close 0.5 "mean near 4" 4.0 summary.Stats.mean;
  Alcotest.(check bool) "interval brackets analytic" true
    (abs_float (summary.Stats.mean -. 4.0) < 3.0 *. summary.Stats.half_width)

let test_sim_first_passage_deterministic () =
  (* det(2) then det(3): first passage to the deadlock is exactly 5. *)
  let lts =
    lts_of_defs []
      (Term.prefix "a" (Rate.exp 1.0) (Term.prefix "b" (Rate.exp 1.0) Term.stop))
  in
  let timing = function
    | "a" -> Some (Sim.Timed (Dist.Deterministic 2.0))
    | "b" -> Some (Sim.Timed (Dist.Deterministic 3.0))
    | _ -> None
  in
  let target s = lts.Lts.row.(s + 1) = lts.Lts.row.(s) in
  let summary, censored =
    Sim.first_passage ~timing ~lts ~target ~runs:5 ~seed:3 ()
  in
  Alcotest.(check int) "no censoring" 0 censored;
  check_close 1e-9 "exactly 5" 5.0 summary.Stats.mean

let test_sim_first_passage_censoring () =
  (* Target unreachable: every run is censored at the horizon. *)
  let defs = [ ("P", Term.prefix "t" (Rate.exp 1.0) (Term.call "P")) ] in
  let lts = lts_of_defs defs (Term.call "P") in
  let summary, censored =
    Sim.first_passage ~horizon:50.0 ~lts ~target:(fun _ -> false) ~runs:4
      ~seed:4 ()
  in
  Alcotest.(check int) "all censored" 4 censored;
  check_close 1e-9 "lower bound is horizon" 50.0 summary.Stats.mean

let first_passage_suite =
  [
    Alcotest.test_case "sim first passage vs analytic" `Quick
      test_sim_first_passage_matches_analytic;
    Alcotest.test_case "sim first passage deterministic" `Quick
      test_sim_first_passage_deterministic;
    Alcotest.test_case "sim first passage censoring" `Quick
      test_sim_first_passage_censoring;
  ]

let suite = suite @ first_passage_suite

(* Instrument accounting and resource-guard polling *)

module Metrics = Dpma_obs.Metrics
module Instruments = Dpma_obs.Instruments
module Guard = Dpma_util.Guard

(* The per-run streams of [replicate] and [first_passage]: stream [i] is
   the [i]-th split of the seed's master generator. *)
let streams ~runs ~seed =
  let master = Prng.create seed in
  List.init runs (fun _ -> Prng.split master)

let birth_death () =
  lts_of_defs
    [
      ("S0", Term.prefix "up" (Rate.exp 1.0) (Term.call "S1"));
      ( "S1",
        Term.choice
          [
            Term.prefix "up" (Rate.exp 1.0) (Term.call "S2");
            Term.prefix "down" (Rate.exp 2.0) (Term.call "S0");
          ] );
      ("S2", Term.prefix "down" (Rate.exp 2.0) (Term.call "S1"));
    ]
    (Term.call "S0")

let test_replicate_counts_events () =
  let lts = birth_death () in
  let per_run =
    List.map
      (fun g ->
        (Sim.run ~warmup:10.0 ~lts ~duration:200.0 ~estimands:[] g).Sim.events)
      (streams ~runs:6 ~seed:31)
  in
  let before = Metrics.count Instruments.sim_events in
  ignore
    (Sim.replicate ~jobs:2 ~warmup:10.0 ~lts ~duration:200.0 ~estimands:[]
       ~runs:6 ~seed:31 ());
  Alcotest.(check int) "sim.events grows by the per-run sum"
    (List.fold_left ( + ) 0 per_run)
    (Metrics.count Instruments.sim_events - before)

let test_first_passage_counts_events () =
  let lts = birth_death () in
  let target s =
    lts.Lts.row.(s + 1) - lts.Lts.row.(s) = 1
    && Lts.enables_label lts s (Lts.obs "down")
  in
  (* Events of one run: every firing up to and including the one that
     enters the target. *)
  let events_to_hit g =
    let n = ref 0 in
    (try
       ignore
         (Sim.run_segments
            ~trace:(fun ~time:_ ~action:_ ~state ->
              incr n;
              if target state then raise Exit)
            ~lts ~boundaries:[| 1e7 |] ~estimands:[] g)
     with Exit -> ());
    !n
  in
  let expected =
    List.fold_left ( + ) 0 (List.map events_to_hit (streams ~runs:8 ~seed:5))
  in
  Alcotest.(check bool) "runs take events" true (expected > 8);
  let before = Metrics.count Instruments.sim_events in
  let _, censored = Sim.first_passage ~jobs:2 ~lts ~target ~runs:8 ~seed:5 () in
  Alcotest.(check int) "no censoring" 0 censored;
  Alcotest.(check int) "sim.events grows by the per-run sum" expected
    (Metrics.count Instruments.sim_events - before)

let test_replicate_polls_guard () =
  (* A fast self-loop: polls come before each run and every 65536 events. *)
  let lts =
    lts_of_defs [ ("P", Term.prefix "t" (Rate.exp 100.0) (Term.call "P")) ]
      (Term.call "P")
  in
  let per_run =
    List.map
      (fun g -> (Sim.run ~lts ~duration:1_500.0 ~estimands:[] g).Sim.events)
      (streams ~runs:2 ~seed:3)
  in
  let expected = List.fold_left (fun acc e -> acc + 1 + (e / 65_536)) 0 per_run in
  Alcotest.(check bool) "runs cross a poll interval" true (expected >= 4);
  let before = Metrics.count Instruments.guard_polls in
  Guard.with_guard (Guard.create ~max_seconds:3600.0 ()) (fun () ->
      ignore
        (Sim.replicate ~jobs:1 ~lts ~duration:1_500.0 ~estimands:[] ~runs:2
           ~seed:3 ()));
  Alcotest.(check int) "guard polls" expected
    (Metrics.count Instruments.guard_polls - before);
  match
    Guard.with_guard (Guard.create ~max_seconds:0.0 ()) (fun () ->
        Sim.replicate ~jobs:2 ~lts ~duration:1_500.0 ~estimands:[] ~runs:2
          ~seed:3 ())
  with
  | _ -> Alcotest.fail "a spent budget must trip"
  | exception Guard.Resource_exceeded trip ->
      Alcotest.(check string) "phase" "sim.replicate" trip.Guard.phase;
      Alcotest.(check (list string)) "partial progress" [ "runs"; "events" ]
        (List.map fst trip.Guard.partial)

(* The stepping loop allocates next to nothing: no boxed PRNG state, no
   boxed sample on the way into the clock array. A fixed replication of
   rpc's general model (deterministic, normal and exponential clocks)
   must stay at or below 16 minor words per event: the engine that boxed
   every draw ran at about 27, the unboxed one runs at about 1.3. Minor
   words count this domain only, so the runs stay on it ([~jobs:1]). *)
let test_replicate_minor_words_per_event () =
  let module Rpc = Dpma_models.Rpc in
  let module Pipeline = Dpma_core.Pipeline in
  let module Measure = Dpma_measures.Measure in
  let study = Rpc.study ~mode:Rpc.General Rpc.default_params in
  let lts = Lts.of_spec study.Pipeline.spec in
  let timing = Dpma_core.General.timing_of_list study.Pipeline.general_timings in
  let estimands =
    Measure.estimands (Measure.compile_sim lts study.Pipeline.measures)
  in
  let events_before = Metrics.count Instruments.sim_events in
  let words_before = Gc.minor_words () in
  ignore
    (Sim.replicate ~jobs:1 ~timing ~warmup:1_000.0 ~lts ~duration:20_000.0
       ~estimands ~runs:4 ~seed:17 ());
  let words = Gc.minor_words () -. words_before in
  let events = Metrics.count Instruments.sim_events - events_before in
  Alcotest.(check bool) "enough events to amortize set-up" true
    (events >= 100_000);
  let per_event = words /. float_of_int events in
  if per_event > 16.0 then
    Alcotest.failf "%.2f minor words per event, above 16" per_event

let accounting_suite =
  [
    Alcotest.test_case "replicate minor words per event" `Quick
      test_replicate_minor_words_per_event;
    Alcotest.test_case "replicate counts events" `Quick
      test_replicate_counts_events;
    Alcotest.test_case "first passage counts events" `Quick
      test_first_passage_counts_events;
    Alcotest.test_case "replicate polls the guard" `Quick
      test_replicate_polls_guard;
  ]

let suite = suite @ accounting_suite
