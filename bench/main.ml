(* Benchmark harness.

   It regenerates every table/figure of the paper's evaluation (Sect. 3
   verdicts, Figs. 3-8) through the suite of lib/models/figures.ml,
   timing each figure driver once, and times and checks the compiled
   core per study: state counts, bit-identity across job counts and
   spill, the family path against the per-member pipelines, and the
   resource guard. EXPERIMENTS.md records the paper-vs-measured
   comparison.

   Run with: dune exec bench/main.exe
   Arguments (after --):
     quick   shrink the figure sweeps
     smoke   quick figures plus the per-study timings and the family
             races; the half-million-state model is built but not
             refined (CI smoke)
     tiny    minimal single-point run (sec3 + one fig3 point) of the
             smoke legs on small models
     json    write BENCH_results.json and print the same document to stdout
     metrics print the metrics registry to stderr on exit
     trace   record span timings and print the tree to stderr on exit
     -j N    run sweeps on N domains (same as DPMA_JOBS=N)
     --max-seconds S   wall-clock budget; on a trip the run prints a
                       machine-readable degraded verdict and exits 3
     --max-mb MB       resident-memory budget, same degraded contract
     --spill-dir DIR   spill full storage segments beyond the resident
                       budget to a mapped temp file in DIR
     --spill-mb MB     resident segment budget for --spill-dir
                       (default: half of --max-mb, else 64)

   Figure tables go to stdout and are bit-identical for any job count;
   wall-clock timing lines go to stderr. In json mode stdout carries the
   pure JSON report (schema dpma.bench/1, see docs/OBSERVABILITY.md) and
   the figure tables move to stderr. Every failed check prints one
   "[bench] TAG ..." line to stderr and exits 1. *)

module Figures = Dpma_models.Figures
module Rpc = Dpma_models.Rpc
module Streaming = Dpma_models.Streaming
module Adhoc = Dpma_models.Adhoc
module Markov = Dpma_core.Markov
module NI = Dpma_core.Noninterference
module Lts = Dpma_lts.Lts
module Bisim = Dpma_lts.Bisim
module Elaborate = Dpma_adl.Elaborate
module Parser = Dpma_adl.Parser
module Ast = Dpma_adl.Ast
module Measure = Dpma_measures.Measure
module Flts = Dpma_lts.Flts
module Pool = Dpma_util.Pool
module Json = Dpma_obs.Json
module Rguard = Dpma_util.Guard

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "[bench] %s\n%!" msg;
      exit 1)
    fmt

let quick, json_mode, smoke, tiny =
  let quick = ref false and json = ref false in
  let smoke = ref false and tiny = ref false in
  let max_seconds = ref None and max_mb = ref None in
  let spill_dir = ref None and spill_mb = ref None in
  let usage msg =
    prerr_endline ("bench: " ^ msg);
    exit 2
  in
  let value name kind conv r = function
    | v :: rest -> (
        match conv v with
        | Some x ->
            r := Some x;
            rest
        | None -> usage (Printf.sprintf "%s expects %s" name kind))
    | [] -> usage (name ^ " expects an argument")
  in
  let rec parse = function
    | [] -> ()
    | "-j" :: n :: rest ->
        (match int_of_string_opt n with
        | Some j when j >= 1 -> Pool.set_default_jobs j
        | _ -> usage "-j expects a positive integer");
        parse rest
    | "--max-seconds" :: rest ->
        parse
          (value "--max-seconds" "a number" float_of_string_opt max_seconds
             rest)
    | "--max-mb" :: rest ->
        parse (value "--max-mb" "an integer" int_of_string_opt max_mb rest)
    | "--spill-dir" :: rest ->
        parse (value "--spill-dir" "a directory" Option.some spill_dir rest)
    | "--spill-mb" :: rest ->
        parse (value "--spill-mb" "an integer" int_of_string_opt spill_mb rest)
    | "quick" :: rest ->
        quick := true;
        parse rest
    | "json" :: rest ->
        json := true;
        parse rest
    | "smoke" :: rest ->
        smoke := true;
        quick := true;
        parse rest
    | "tiny" :: rest ->
        tiny := true;
        smoke := true;
        quick := true;
        parse rest
    | "metrics" :: rest ->
        Dpma_obs.Report.configure ~metrics:(Some Dpma_obs.Report.Text) ();
        parse rest
    | "trace" :: rest ->
        Dpma_obs.Report.configure ~trace:true ();
        parse rest
    | arg :: _ -> usage (Printf.sprintf "unknown argument %S" arg)
  in
  Dpma_obs.Report.init_from_env ();
  parse (List.tl (Array.to_list Sys.argv));
  (* The guard is ambient, so it covers every build and refinement phase
     of the run. *)
  (match
     Dpma_core.Limits.install ~max_seconds:!max_seconds ~max_mb:!max_mb
       ~spill_dir:!spill_dir ~spill_mb:!spill_mb
   with
  | Ok () -> ()
  | Error msg -> usage msg);
  (!quick, !json, !smoke, !tiny)

(* ------------------------------------------------------------------ *)
(* Wall-clock accounting (stderr only, so stdout stays diffable)       *)

let wall_clock : (string * float) list ref = ref []

let record name dt =
  wall_clock := (name, dt) :: !wall_clock;
  Printf.eprintf "[bench] %-16s %8.2f s\n%!" name dt

let clocked f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let timed name f =
  let r, dt = clocked f in
  record name dt;
  r

(* ------------------------------------------------------------------ *)
(* Per-study compiled-core timings and state-count goldens             *)

(* Smoke and tiny runs time the two paper studies through the compiled
   state-space core (BFS build over the memoized SOS engine, then the
   weak-bisimulation noninterference check) and assert the known state
   counts — a refactor of the term/label/LTS representation must change
   neither. The timings land in BENCH_results.json under
   "study_seconds" so regressions of the two hot phases are visible
   per study, not just as aggregate histograms. *)

let study_seconds : (string * (string * float) list) list ref = ref []

let add_study name entries = study_seconds := (name, entries) :: !study_seconds

let check_states what expected actual =
  if expected <> actual then
    fail "GOLDEN MISMATCH %s: expected %d states, got %d" what expected actual

(* The jobs sweeps: a phase rerun at 1, 2 and 4 jobs, each leg behind a
   full major collection so that no leg pays for marking an earlier
   leg's result (measured on the 518k-state model: a second *identical*
   j1 build runs 1.6x slower than the first when the first result stays
   live). [leg j] returns the leg's result and seconds; every leg's
   [key] must equal [reference] (default: the j1 leg's), which makes
   the sweep a bit-identity differential across job counts. With
   [gate], -j must be a safe default: a parallel leg may not be slower
   than the sequential one beyond timing noise (10% relative plus
   250 ms absolute slack for sub-second phases on loaded CI machines).
   Returns [(jobs, result, seconds)] per leg. *)
let jobs_sweep ?reference ?gate ~what ~key name leg =
  let legs =
    List.map
      (fun j ->
        Gc.full_major ();
        let r, dt = leg j in
        (j, r, dt))
      [ 1; 2; 4 ]
  in
  let _, r1, t1 = List.hd legs in
  let reference = match reference with Some r -> r | None -> key r1 in
  List.iter
    (fun (j, r, _) ->
      if key r <> reference then
        fail "JOBS MISMATCH %s: %s differs at j%d" name what j)
    legs;
  Option.iter
    (fun tag ->
      List.iter
        (fun (j, _, tj) ->
          if tj > (1.1 *. t1) +. 0.25 then
            fail "%s %s: %.3f s at j%d vs %.3f s at j1" tag name tj j t1)
        (List.tl legs))
    gate;
  legs

let sweep_entries metric legs =
  List.map (fun (j, _, dt) -> (Printf.sprintf "%s.j%d" metric j, dt)) legs

(* Each study's state space is rebuilt at every job count so the scaling
   of the level-synchronous builder lands in the JSON report
   (lts.build_seconds.jN). An untimed warmup build runs first: it
   populates the global term-sharing table, sizes the major heap, and is
   the one LTS kept live (each leg compares its CSR with it, [Lts.equal],
   and keeps only the verdict) — the study's later phases reuse it.
   Returns the warmup LTS, the j1 leg's stats and the per-leg timing
   entries. *)
let build_sweep ?max_states name spec =
  let lts, _ = Lts.build ?max_states ~jobs:1 spec in
  let legs =
    jobs_sweep ~reference:true ~gate:"BUILD REGRESSION"
      ~what:"CSR" ~key:fst name (fun j ->
        let l, st = Lts.build ?max_states ~jobs:j spec in
        ((Lts.equal l lts, st), st.Lts.build_seconds))
  in
  let _, (_, st), _ = List.hd legs in
  (lts, st, sweep_entries "lts.build_seconds" legs)

(* The refinement loop's jobs scaling, next to the builder's: the
   coarsest strong-bisimulation partition of the study's full LTS
   (bisim.refine_seconds.jN). The parallel signature pass merges
   per-chunk classes in state order, so the partitions must be
   bit-identical. *)
let refine_sweep name (lts : Lts.t) =
  sweep_entries "bisim.refine_seconds"
    (jobs_sweep ~what:"strong partition" ~key:Fun.id name (fun j ->
         clocked (fun () -> Bisim.strong_partition ~jobs:j lts)))

(* The lazy weak path next to the strong one: the weak-bisimulation
   partition of the study's functional LTS (bisim.weak_refine_seconds.jN),
   bit-identical across job counts — the standing determinism
   differential now that the materialized-saturation oracle is gone
   (test/test_weak_lazy.ml keeps a reconstructed oracle differential on
   small models) — and gated like the builder. *)
let weak_sweep name (lts : Lts.t) =
  sweep_entries "bisim.weak_refine_seconds"
    (jobs_sweep ~gate:"WEAK REGRESSION" ~what:"weak partition" ~key:Fun.id
       name (fun j ->
         clocked (fun () -> Bisim.weak_partition ~jobs:j lts)))

let study_timings () =
  let one name ~functional_states ~full_states
      (study : Dpma_core.Pipeline.study) =
    let lts, st, build_entries =
      build_sweep name study.Dpma_core.Pipeline.spec
    in
    check_states (name ^ " full") full_states lts.Lts.num_states;
    let refine_entries = refine_sweep name lts in
    let functional =
      Option.value ~default:study.Dpma_core.Pipeline.spec
        study.Dpma_core.Pipeline.functional_spec
    in
    let flts = Lts.of_spec functional in
    check_states (name ^ " functional") functional_states flts.Lts.num_states;
    let weak_entries = weak_sweep name flts in
    (* The noninterference hierarchy as [Pipeline.assess] runs it: one
       front, finest decision first, on the functional LTS built above.
       Both studies are secure at every level, so one decision runs and
       the pruned count is that decision's. *)
    let pruned0 =
      Dpma_obs.Metrics.count Dpma_obs.Instruments.ni_product_pruned
    in
    let secure, hierarchy_s =
      clocked (fun () ->
          NI.check_hierarchy flts ~high:(NI.mem_of study.Dpma_core.Pipeline.high)
            ~low:(NI.mem_of study.Dpma_core.Pipeline.low))
    in
    if secure <> (NI.Secure, true, true) then
      fail "GOLDEN MISMATCH %s: expected security at every level" name;
    let pruned =
      Dpma_obs.Metrics.count Dpma_obs.Instruments.ni_product_pruned - pruned0
    in
    Printf.eprintf
      "[bench] %-16s lts.build %.3f s, ni.hierarchy %.3f s, pruned %d states\n%!"
      name st.Lts.build_seconds hierarchy_s pruned;
    add_study name
      (build_entries @ refine_entries @ weak_entries
      @ [
          ("ni.hierarchy_seconds", hierarchy_s);
          ("ni.states_pruned", float_of_int pruned);
        ])
  in
  one "rpc" ~functional_states:546 ~full_states:546
    (Rpc.study Rpc.default_params);
  one "streaming" ~functional_states:2565 ~full_states:19133
    (Streaming.study Streaming.default_params)

(* A build under a resident segment budget through the spill path, in a
   fresh temp directory: it must spill, equal [reference] (an in-memory
   build, when given), and leave no temp file behind. Tiny runs shrink the
   segments (seg_bits 8) so their small models still cross segment
   boundaries. *)
let spill_build ?reference name suffix ~max_resident_bytes ~max_states spec =
  let spill_dir = Filename.temp_dir "dpma-bench" suffix in
  Gc.full_major ();
  let slts, sst =
    Lts.build ~max_states
      ?seg_bits:(if tiny then Some 8 else None)
      ~spill_dir ~max_resident_bytes spec
  in
  Option.iter
    (fun reference ->
      if not (Lts.equal slts reference) then
        fail "SPILL MISMATCH %s: CSR differs from the in-memory build" name)
    reference;
  if sst.Lts.spilled_segments = 0 then
    fail "SPILL MISMATCH %s: the spill build spilled no segments" name;
  (match Sys.readdir spill_dir with
  | [||] -> Unix.rmdir spill_dir
  | leftovers ->
      fail "SPILL LEAK %s: %d temp files left in %s" name
        (Array.length leftovers) spill_dir);
  (slts, sst)

(* The N-station scaling model (lib/models/streaming.ml, scaled_archi):
   the state space where segment storage and the parallel builder earn
   their keep. Tiny runs use a single station (530 states) so the JSON
   contract check stays fast; smoke and full runs build the calibrated
   default (2 stations, >500k states) at 1/2/4 jobs. *)
let scaled_study () =
  let name = "streaming_scaled" in
  let sp, expected_states, max_states =
    if tiny then
      ( { Streaming.default_scaled_params with Streaming.stations = 1 },
        530, 100_000 )
    else (Streaming.default_scaled_params, 518_218, 600_000)
  in
  let spec = Streaming.scaled_spec sp in
  let lts, st, build_entries = build_sweep ~max_states name spec in
  check_states name expected_states lts.Lts.num_states;
  (* The full half-million-state refinement sweep is minutes of work;
     smoke runs stay inside their timeout by skipping it (tiny runs use
     the 530-state model, so the JSON contract keys stay covered — the
     smoke legs cover refinement through the rpc/streaming sweeps). *)
  let refine_entries = if tiny || not smoke then refine_sweep name lts else [] in
  (* The weak sweep is the lazy path's headline number: the 518k-state
     model's weak partition without ever materializing the saturated
     relation. *)
  let weak_entries =
    if tiny || not smoke then weak_sweep name lts else []
  in
  (* Spill differential: the same build forced through the disk-backed
     segment path (resident budget 0, so every full segment spills) must
     produce a bit-identical CSR and report its spill traffic. *)
  let _, sst =
    spill_build name ".spill" ~max_resident_bytes:0 ~reference:lts
      ~max_states spec
  in
  Printf.eprintf
    "[bench] %-16s %d states, %d transitions, %d segments, %.1f MiB peak, \
     lts.build %.3f s, spilled %d segs (%.1f MiB, %.3f s)\n\
     %!"
    name lts.Lts.num_states (Lts.num_transitions lts) st.Lts.segments
    (float_of_int st.Lts.segment_bytes_peak /. 1048576.0)
    st.Lts.build_seconds sst.Lts.spilled_segments
    (float_of_int sst.Lts.spilled_bytes /. 1048576.0)
    sst.Lts.spill_write_seconds;
  add_study name
    (build_entries @ refine_entries @ weak_entries
    @ [
        ("lts.states", float_of_int lts.Lts.num_states);
        ("lts.transitions", float_of_int (Lts.num_transitions lts));
        ("lts.segment_bytes_peak", float_of_int st.Lts.segment_bytes_peak);
        ("lts.spill.segments", float_of_int sst.Lts.spilled_segments);
        ("lts.spill.bytes", float_of_int sst.Lts.spilled_bytes);
        ("lts.spill.build_seconds", sst.Lts.build_seconds);
      ])

(* The featured-family path next to the per-configuration one: a
   4-configuration awake-period family of the streaming study, one
   featured build plus per-configuration projections, against the
   baseline of four independent Lts.of_spec pipelines on the same
   specifications. The projections are bit-identical to the baseline
   builds by the Flts contract; the bench compares every member's full
   CSR with its pipeline build and requires that the shared build
   actually pays — the featured leg must beat the N-pipeline baseline
   or the run aborts. The baseline runs second, so any warmup the legs
   share favors the baseline, making the guard conservative. *)
let family_sweep () =
  let periods = [ 100.0; 200.0; 400.0; 800.0 ] in
  let specs =
    Array.of_list
      (List.map
         (fun a ->
           (Streaming.elaborate ~mode:Streaming.Markovian ~monitors:true
              { Streaming.default_params with awake_period_mean = a })
             .Elaborate.spec)
         periods)
  in
  let nconfigs = Array.length specs in
  Gc.full_major ();
  let (fam, _), build_s = clocked (fun () -> Flts.build_family specs) in
  let projected =
    Array.init nconfigs (fun c -> clocked (fun () -> Flts.project fam c))
  in
  let ltss = Array.map fst projected and proj_s = Array.map snd projected in
  Gc.full_major ();
  let base, base_s =
    clocked (fun () -> Array.map (fun spec -> Lts.of_spec spec) specs)
  in
  Array.iteri
    (fun c lts ->
      let b = base.(c) in
      if not (Lts.equal lts b) then
        fail
          "FAMILY MISMATCH streaming_family: config %d projects to %d states \
           / %d transitions, pipeline builds %d / %d, CSRs differ"
          c lts.Lts.num_states (Lts.num_transitions lts) b.Lts.num_states
          (Lts.num_transitions b))
    ltss;
  let proj_total = Array.fold_left ( +. ) 0.0 proj_s in
  let fam_total = build_s +. proj_total in
  if fam_total >= base_s then
    fail
      "FAMILY REGRESSION streaming_family: featured build + %d projections \
       took %.3f s, %d independent pipelines took %.3f s"
      nconfigs fam_total nconfigs base_s;
  let sum_states =
    Array.fold_left (fun acc l -> acc + l.Lts.num_states) 0 ltss
  in
  let sharing =
    float_of_int fam.Flts.num_states /. float_of_int sum_states
  in
  Printf.eprintf
    "[bench] %-16s %d configs, %d union states (sharing %.3f), family \
     %.3f s vs pipelines %.3f s (%.1fx)\n\
     %!"
    "streaming_family" nconfigs fam.Flts.num_states sharing fam_total base_s
    (base_s /. fam_total);
  add_study "streaming_family"
    ([
       ("family.configs", float_of_int nconfigs);
       ("family.states", float_of_int fam.Flts.num_states);
       ("family.sharing_ratio", sharing);
       ("family.build_seconds", build_s);
       ("family.project_seconds", proj_total);
     ]
    @ List.mapi
        (fun c dt -> (Printf.sprintf "family.project_seconds.c%d" c, dt))
        (Array.to_list proj_s)
    @ [
        ("baseline.build_seconds", base_s);
        ("family.speedup", base_s /. fam_total);
      ])

(* Thousand-configuration grid: examples/specs/streaming_grid.aem (dpm
   toggle x dozing timeout x awake period, 2 x T x A members) with its
   measures, analyzed by the featured path — one union build, per-member
   projections, and deduplicated CTMC solves — against the per-member
   pipeline (Lts.of_spec + analyze_lts each). The dpm=0 half of the grid
   never reaches the timeout/awake-sensitive behaviors, so all those
   members project to one chain and share a single solve. The run aborts
   on any of: a member's projection differing from its pipeline build
   (full CSR compare, every member), a measure value not bit-identical to its pipeline
   value (nan matches nan), no solve sharing, or the featured leg failing
   to finish in under half the baseline time. Each leg is timed as the
   best of three runs, so that one stall of a loaded host does not
   decide the gate; the baseline runs second, so shared warmup favors
   it. Tiny runs keep the first 4 timeout and
   the first 8 awake values, 2 x 4 x 8 = 64 members; smoke and full runs
   race the whole 1024-member grid. Both files are read relative to the
   working directory, the repository root. *)
let family_scale () =
  let t_max, a_max = if tiny then (4, 8) else (16, 32) in
  let read path = In_channel.with_open_bin path In_channel.input_all in
  let archi = Parser.parse (read "examples/specs/streaming_grid.aem") in
  let shrink (f : Ast.feature) =
    let keep n = List.filteri (fun i _ -> i < n) f.f_domain in
    match f.f_name with
    | "timeout" -> { f with f_domain = keep t_max }
    | "awake" -> { f with f_domain = keep a_max }
    | _ -> f
  in
  let archi = { archi with features = List.map shrink archi.features } in
  let measures = Measure.parse (read "examples/specs/streaming_grid.measures") in
  (* Elaboration is identical work for both legs, so it stays outside
     the timers. *)
  let fam_adl = Elaborate.elaborate_family archi in
  let specs =
    Array.map (fun m -> m.Elaborate.spec) fam_adl.Elaborate.members
  in
  let members = Array.length specs in
  assert (members = 2 * t_max * a_max);
  (* A leg's outputs and time from its fastest of three runs; every
     run computes the same outputs. *)
  let best_of_3 leg =
    let best = ref (leg ()) in
    for _ = 2 to 3 do
      let ((_, t) as run) = leg () in
      if t < snd !best then best := run
    done;
    !best
  in
  (* Featured leg, [Markov.family]: one union build, every projection,
     dedup solves. *)
  let fam, fam_total =
    best_of_3 (fun () ->
        Gc.full_major ();
        let fam = Markov.family ~measures specs in
        ( fam,
          fam.Markov.build_seconds +. fam.Markov.project_seconds
          +. fam.Markov.analyze_seconds ))
  in
  let ltss = fam.Markov.members in
  let analyses, solve_stats = Option.get fam.Markov.solved in
  (* Baseline leg, second: one full pipeline per member, keeping each
     member's own build for the identity check below. *)
  let base, base_s =
    best_of_3 (fun () ->
        Gc.full_major ();
        clocked (fun () ->
            Array.map
              (fun spec ->
                let lts = Lts.of_spec spec in
                (lts, Markov.analyze_lts lts measures))
              specs))
  in
  (* Bit-identity: every member must project to exactly its pipeline
     build's CSR. *)
  Array.iteri
    (fun c (b, _) ->
      if not (Lts.equal ltss.(c) b) then
        fail
          "FAMILY MISMATCH family_scale: member %d's projection differs \
           from its pipeline build"
          c)
    base;
  (* Every member's dedup analysis against its own solve, bit for bit
     (nan matches nan), state counts included. *)
  let same a b =
    Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
    || (Float.is_nan a && Float.is_nan b)
  in
  Array.iteri
    (fun c (a : Markov.analysis) ->
      let b = snd base.(c) in
      if a.Markov.states <> b.Markov.states
         || a.Markov.tangible <> b.Markov.tangible
      then
        fail
          "VALUE MISMATCH family_scale: member %d: dedup %d/%d states vs \
           pipeline %d/%d"
          c a.Markov.states a.Markov.tangible b.Markov.states
          b.Markov.tangible;
      List.iter2
        (fun (name, v) (bname, bv) ->
          assert (String.equal name bname);
          if not (same v bv) then
            fail
              "VALUE MISMATCH family_scale: member %d measure %s: dedup \
               %.17g vs pipeline %.17g"
              c name v bv)
        a.Markov.values b.Markov.values)
    analyses;
  if solve_stats.Markov.distinct_quotients >= members then
    fail "NO SHARING family_scale: %d distinct quotients for %d members"
      solve_stats.Markov.distinct_quotients members;
  if fam_total >= 0.5 *. base_s then
    fail
      "FAMILY REGRESSION family_scale: featured+dedup took %.3f s, %d \
       pipelines took %.3f s (want < 0.5x)"
      fam_total members base_s;
  Printf.eprintf
    "[bench] %-16s %d members, %d union states, %d distinct quotients \
     (%d solves shared), %d guard words, featured %.3f s vs pipelines \
     %.3f s (%.1fx)\n\
     %!"
    "family_scale" members fam.Markov.union_states
    solve_stats.Markov.distinct_quotients solve_stats.Markov.solves_shared
    fam.Markov.stats.Flts.guard_words fam_total base_s (base_s /. fam_total);
  add_study "family_scale"
    [
      ("family.configs", float_of_int members);
      ("family.states", float_of_int fam.Markov.union_states);
      ("family.distinct_quotients",
       float_of_int solve_stats.Markov.distinct_quotients);
      ("family.solves_shared", float_of_int solve_stats.Markov.solves_shared);
      ("family.guard_words", float_of_int fam.Markov.stats.Flts.guard_words);
      ("family.build_seconds", fam.Markov.build_seconds);
      ("family.project_seconds", fam.Markov.project_seconds);
      ("family.analyze_seconds", fam.Markov.analyze_seconds);
      ("baseline.analyze_seconds", base_s);
      ("family.speedup", base_s /. fam_total);
    ]

(* The N-node ad hoc network chain (lib/models/adhoc.ml): the
   million-state scenario the spill store and the resource guards exist
   for. Smoke and full runs build the calibrated 4-node instance — over
   2 million states whose in-memory edge segments peak near 500 MiB —
   under a 64-MiB resident segment budget, which only the spill path can
   satisfy. Tiny runs shrink the chain to 2 nodes and the segments to
   seg_bits 8 so the same spill machinery (and the JSON contract keys)
   is exercised in milliseconds, and add two checks the big instance
   would pay for twice: a bit-identity differential against the
   in-memory build, and a deliberately tripped wall-clock guard whose
   structured verdict must carry the partial build progress. *)
let adhoc_study () =
  let name = "adhoc_net" in
  let p, expected_states, max_states, cap_mb =
    if tiny then
      ( { Adhoc.default_params with Adhoc.nodes = 2; queue_size = 1 },
        1_232, 100_000, 0 )
    else
      ( { Adhoc.default_params with
          Adhoc.nodes = 4; queue_size = 1; head_queue_size = Some 2 },
        2_025_289, 2_500_000, 64 )
  in
  let spec = Adhoc.spec ~monitors:false p in
  (* Differential against the in-memory path (cheap at 2 nodes; the big
     instance relies on the streaming_scaled spill differential, which
     runs in every mode). *)
  let reference =
    if tiny then Some (Lts.of_spec ~max_states spec) else None
  in
  let lts, st =
    spill_build ?reference name ".adhoc"
      ~max_resident_bytes:(cap_mb * 1024 * 1024) ~max_states spec
  in
  check_states name expected_states lts.Lts.num_states;
  (* Deliberate guard trip: an exhausted wall-clock budget must abort
     the build with the structured trip — right resource, right phase,
     partial progress attached — not a crash. [Guard.poll] clears a
     tripped guard, so the rest of the run is unaffected. *)
  let trip =
    try
      Rguard.with_guard
        (Rguard.create ~max_seconds:0.0 ())
        (fun () -> ignore (Lts.build ~max_states:10_000 spec));
      fail "GUARD MISMATCH %s: exhausted wall-clock budget did not trip" name
    with Rguard.Resource_exceeded trip -> trip
  in
  if trip.Rguard.resource <> Rguard.Wall_clock
     || trip.Rguard.phase <> "lts.build"
     || trip.Rguard.partial = []
  then fail "GUARD MISMATCH %s: malformed trip %s" name (Rguard.verdict_line trip);
  Printf.eprintf
    "[bench] %-16s %d states, %d transitions under a %d-MiB cap: %.1f MiB \
     resident peak, spilled %d segs (%.1f MiB, %.3f s), lts.build %.3f s\n\
     %!"
    name lts.Lts.num_states (Lts.num_transitions lts) cap_mb
    (float_of_int st.Lts.segment_bytes_peak /. 1048576.0)
    st.Lts.spilled_segments
    (float_of_int st.Lts.spilled_bytes /. 1048576.0)
    st.Lts.spill_write_seconds st.Lts.build_seconds;
  add_study name
    [
      ("lts.build_seconds", st.Lts.build_seconds);
      ("lts.states", float_of_int lts.Lts.num_states);
      ("lts.transitions", float_of_int (Lts.num_transitions lts));
      ("lts.segment_bytes_peak", float_of_int st.Lts.segment_bytes_peak);
      ("lts.spill.segments", float_of_int st.Lts.spilled_segments);
      ("lts.spill.bytes", float_of_int st.Lts.spilled_bytes);
      ("guard.trips", 1.0);
    ]

(* ------------------------------------------------------------------ *)
(* JSON report                                                         *)

let notes =
  "weak minimize on streaming_scaled (518218 states to 502591 classes and \
   3319813 weak transitions; dpma minimize --weak -j 1 --max-states \
   600000, 2-vCPU host): 49 s and 54 s wall with the mixing signature \
   hash (Dpma_util.Hash) against 496 s with the label-dropping multiply \
   hash it replaced, measured back to back; about 1.8 GiB peak RSS \
   (VmHWM sampled each second) for both; 12 refinement rounds"

let json_report () =
  let figs = List.rev !wall_clock in
  let total = List.fold_left (fun acc (_, dt) -> acc +. dt) 0.0 figs in
  let obj entries = Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) entries) in
  Json.Obj
    [
      ("schema", Json.Str "dpma.bench/1");
      ("jobs", Json.num_of_int (Pool.default_jobs ()));
      ("quick", Json.Bool quick);
      ("notes", Json.Str notes);
      ("figures_wall_clock_s", obj (figs @ [ ("total", total) ]));
      ( "study_seconds",
        Json.Obj (List.rev_map (fun (study, e) -> (study, obj e)) !study_seconds) );
      (* The same metric objects dpma --metrics=json emits; the names and
         units are the contract of docs/OBSERVABILITY.md. *)
      ("metrics", Dpma_obs.Metrics.to_json ());
    ]

let () =
  (* In json mode stdout must carry nothing but the JSON document, so the
     figure tables (all printed through [Format.std_formatter]) move to
     stderr. *)
  if json_mode then Format.set_formatter_out_channel stderr;
  at_exit (fun () -> Dpma_obs.Report.emit stderr);
  Printf.eprintf "[bench] jobs = %d\n%!" (Pool.default_jobs ());
  (* A tripped --max-seconds/--max-mb guard or a solver that reaches its
     sweep cap degrades the run instead of crashing it: human rendering
     to stderr, the machine-readable dpma.degraded/1 verdict to stdout,
     exit 3 — the same contract as the dpma front end. *)
  try
    Figures.print ~on_timing:record
      (if tiny then Figures.Tiny else if quick then Figures.Quick else Figures.Full)
      Format.std_formatter;
    if smoke then begin
      timed "study-timings" study_timings;
      timed "family-sweep" family_sweep;
      timed "family-scale" family_scale
    end;
    timed "scaled-study" scaled_study;
    timed "adhoc-study" adhoc_study;
    if json_mode then begin
      let report = Json.to_string ~indent:2 (json_report ()) ^ "\n" in
      let oc = open_out "BENCH_results.json" in
      output_string oc report;
      close_out oc;
      Printf.eprintf "[bench] wrote BENCH_results.json\n%!";
      print_string report;
      flush stdout
    end
  with Rguard.Resource_exceeded trip ->
    Format.eprintf "%a@." Rguard.pp_trip trip;
    print_endline (Rguard.verdict_line trip);
    exit 3
