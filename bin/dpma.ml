(* dpma — command-line front end to the DPM assessment toolset.

   Subcommands mirror the tool workflow of the paper (TwoTowers-style):
   parse / lts / minimize / noninterference / solve / simulate / validate
   operate on .aem architectural descriptions; figures / sec3 regenerate
   the paper's evaluation artifacts. *)

open Cmdliner

module Ast = Dpma_adl.Ast
module Parser = Dpma_adl.Parser
module Elaborate = Dpma_adl.Elaborate
module Lts = Dpma_lts.Lts
module Flts = Dpma_lts.Flts
module Bisim = Dpma_lts.Bisim
module NI = Dpma_core.Noninterference
module Markov = Dpma_core.Markov
module General = Dpma_core.General
module Measure = Dpma_measures.Measure
module Figures = Dpma_models.Figures
module Stats = Dpma_util.Stats
module Pool = Dpma_util.Pool
module Report = Dpma_obs.Report

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

module Rguard = Dpma_util.Guard

(* Shared error handling: toolset exceptions become one-line diagnostics.
   Exit codes: 1 for semantic and runtime errors, 2 for .aem/.measures
   syntax errors — rendered "line L, column C: message", the same
   human-readable form as [Parser.parse_result] — and 3 for a degraded
   run: a resource guard tripped, or a numeric solver reached its sweep
   cap without converging; the machine-readable verdict went to stdout,
   and the exit is clean and distinct from a crash. *)
let degraded trip =
  Format.eprintf "%a@." Rguard.pp_trip trip;
  print_endline (Rguard.verdict_line trip);
  exit 3

let handle f =
  try f () with
  | Parser.Parse_error { line; col; message } ->
      Printf.eprintf "line %d, column %d: %s\n" line col message;
      exit 2
  | Dpma_adl.Lexer.Lex_error { line; col; message } ->
      Printf.eprintf "line %d, column %d: %s\n" line col message;
      exit 2
  | Measure.Parse_error msg ->
      Printf.eprintf "measure syntax error: %s\n" msg;
      exit 2
  | Rguard.Resource_exceeded trip -> degraded trip
  | Elaborate.Check_error msg ->
      Printf.eprintf "static error: %s\n" msg;
      exit 1
  | Dpma_ctmc.Ctmc.Build_error msg ->
      Printf.eprintf "markovian error: %s\n" msg;
      exit 1
  | Dpma_sim.Sim.Simulation_error msg ->
      Printf.eprintf "simulation error: %s\n" msg;
      exit 1
  | Lts.Too_many_states n ->
      Printf.eprintf "state space exceeds %d states (raise --max-states)\n" n;
      exit 1
  | Sys_error msg ->
      Printf.eprintf "%s\n" msg;
      exit 1

let load path = Elaborate.elaborate (Parser.parse (read_file path))

let load_measures path = Measure.parse (read_file path)

(* Common arguments *)

let file_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"FILE" ~doc:"Architectural description (.aem).")

let max_states_arg =
  Arg.(
    value & opt int 500_000
    & info [ "max-states" ] ~docv:"N" ~doc:"State-space bound.")

let measures_arg =
  Arg.(
    required
    & opt (some file) None
    & info [ "measures"; "m" ] ~docv:"FILE"
        ~doc:"Measure definitions in the companion language.")

let runs_arg =
  Arg.(value & opt int 30 & info [ "runs" ] ~doc:"Simulation replications.")

let duration_arg =
  Arg.(
    value & opt float 20_000.0
    & info [ "duration" ] ~doc:"Measurement window per run (model time units).")

let warmup_arg =
  Arg.(
    value & opt float 2_000.0
    & info [ "warmup" ] ~doc:"Warm-up period excluded from measurement.")

let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"PRNG seed.")

let jobs_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains for parallel work: LTS construction, bisimulation \
           refinement, sweeps, and simulation replications (default: \
           $(b,DPMA_JOBS) or the machine's core count). Results are \
           identical for any value.")

let apply_jobs jobs = Option.iter Pool.set_default_jobs jobs

(* Observability: every subcommand accepts --metrics[=FORMAT] and --trace;
   the report is emitted to stderr by an [at_exit] hook so it also covers
   the error paths that leave through [exit 1]. The contract is documented
   in docs/OBSERVABILITY.md. *)
let obs_term =
  let metrics =
    Arg.(
      value
      & opt
          ~vopt:(Some Report.Text)
          (some (enum [ ("text", Report.Text); ("json", Report.Json) ]))
          None
      & info [ "metrics" ] ~docv:"FORMAT"
          ~doc:
            "Print pipeline metrics to stderr on exit; $(docv) is \
             $(b,text) (default) or $(b,json). Equivalent to setting \
             $(b,DPMA_METRICS).")
  in
  let trace =
    Arg.(
      value & flag
      & info [ "trace" ]
          ~doc:
            "Record span timings and print the nested timing tree to \
             stderr on exit. Equivalent to $(b,DPMA_TRACE=1).")
  in
  let setup metrics trace =
    Option.iter (fun fmt -> Report.configure ~metrics:(Some fmt) ()) metrics;
    if trace then Report.configure ~trace:true ()
  in
  Term.(const setup $ metrics $ trace)

(* Resource limits and spill, on every subcommand, validated and installed
   by [Dpma_core.Limits.install] (shared with the bench); an invalid value
   is a usage error. *)
let limits_term =
  let max_seconds =
    Arg.(
      value
      & opt (some float) None
      & info [ "max-seconds" ] ~docv:"S"
          ~doc:
            "Wall-clock budget for the whole run. When exceeded, the \
             running phase aborts with a machine-readable degraded \
             verdict on stdout and exit code 3 (never a crash or an OOM \
             kill).")
  in
  let max_mb =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-mb" ] ~docv:"MB"
          ~doc:
            "Resident-memory budget (major heap) for the whole run; \
             exceeding it degrades like $(b,--max-seconds). Combine with \
             $(b,--spill-dir) to stay under the budget on builds that \
             would otherwise exceed it.")
  in
  let spill_dir =
    Arg.(
      value
      & opt (some dir) None
      & info [ "spill-dir" ] ~docv:"DIR"
          ~doc:
            "Spill full state-space storage segments to a memory-mapped \
             temp file in $(docv) once they exceed the resident budget \
             ($(b,--spill-mb)). Results are bit-identical with or \
             without spilling; the temp file is removed on exit.")
  in
  let spill_mb =
    Arg.(
      value
      & opt (some int) None
      & info [ "spill-mb" ] ~docv:"MB"
          ~doc:
            "Resident segment budget that triggers spilling (only with \
             $(b,--spill-dir)). Defaults to half of $(b,--max-mb) when \
             that is set, else 64.")
  in
  let setup max_seconds max_mb spill_dir spill_mb =
    Dpma_core.Limits.install ~max_seconds ~max_mb ~spill_dir ~spill_mb
  in
  Term.(term_result' (const setup $ max_seconds $ max_mb $ spill_dir $ spill_mb))

(* The unit-valued tail argument of every subcommand: observability and
   resource-limit setup. *)
let common_term = Term.(const (fun () () -> ()) $ obs_term $ limits_term)

let sim_params runs duration warmup seed =
  { General.default_sim_params with runs; duration; warmup; seed }

(* parse *)

let cmd_parse =
  let run file pretty () =
    handle (fun () ->
        let archi = Parser.parse (read_file file) in
        Elaborate.check archi;
        if pretty then Format.printf "%a@." Ast.pp archi
        else begin
          Format.printf "%s: %d element types, %d instances, %d attachments@."
            archi.Ast.name
            (List.length archi.Ast.elem_types)
            (List.length archi.Ast.instances)
            (List.length archi.Ast.attachments);
          let el = Elaborate.elaborate archi in
          (match el.Elaborate.unattached_interactions with
          | [] -> ()
          | open_ports ->
              Format.printf "open ports: %s@." (String.concat ", " open_ports));
          match el.Elaborate.general_timings with
          | [] -> ()
          | ts ->
              Format.printf "general timings:@.";
              List.iter
                (fun (a, d) ->
                  Format.printf "  %s := %s@." a (Dpma_dist.Dist.to_string d))
                ts
        end)
  in
  let pretty =
    Arg.(value & flag & info [ "pp" ] ~doc:"Pretty-print the parsed description.")
  in
  Cmd.v
    (Cmd.info "parse" ~doc:"Parse and statically check an architectural description")
    Term.(const run $ file_arg $ pretty $ common_term)

(* lts *)

(* The exploration engine's figures, shared by [lts --stats] and
   [family --stats]. *)
let print_build_stats (build : Lts.build_stats) =
  Format.printf "jobs             : %d@." build.Lts.jobs;
  Format.printf "bfs rounds       : %d@." build.Lts.rounds;
  Format.printf "peak frontier    : %d states@." build.Lts.peak_frontier;
  Format.printf "merge time       : %.6f s@." build.Lts.merge_seconds;
  Format.printf "segments         : %d@." build.Lts.segments;
  Format.printf "peak segment mem : %d bytes (%.1f MiB)@."
    build.Lts.segment_bytes_peak
    (float_of_int build.Lts.segment_bytes_peak /. (1024.0 *. 1024.0));
  if build.Lts.spilled_segments > 0 then
    Format.printf "spilled          : %d segments (%.1f MiB, %.3f s)@."
      build.Lts.spilled_segments
      (float_of_int build.Lts.spilled_bytes /. (1024.0 *. 1024.0))
      build.Lts.spill_write_seconds;
  Format.printf "build time       : %.6f s@." build.Lts.build_seconds

let cmd_lts =
  let run file max_states verbose dot stats jobs () =
    apply_jobs jobs;
    handle (fun () ->
        let el = load file in
        let lts, build = Lts.build ~max_states ?jobs el.Elaborate.spec in
        Format.printf "%a@." Lts.pp_stats lts;
        if stats then begin
          Format.printf "states           : %d@." lts.Lts.num_states;
          Format.printf "transitions      : %d@." (Lts.num_transitions lts);
          print_build_stats build
        end;
        (match Lts.deadlock_states lts with
        | [] -> Format.printf "deadlock free@."
        | ds ->
            Format.printf "%d deadlock state(s); first: %s@." (List.length ds)
              (lts.Lts.state_name (List.hd ds)));
        if verbose then begin
          Format.printf "labels:@.";
          List.iter (fun l -> Format.printf "  %a@." Lts.pp_label l) (Lts.labels lts)
        end;
        match dot with
        | None -> ()
        | Some path ->
            let oc = open_out path in
            let ppf = Format.formatter_of_out_channel oc in
            Lts.pp_dot ppf lts;
            Format.pp_print_flush ppf ();
            close_out oc;
            Format.printf "graphviz rendering written to %s@." path)
  in
  let verbose =
    Arg.(value & flag & info [ "labels" ] ~doc:"List the transition labels.")
  in
  let dot =
    Arg.(
      value
      & opt (some string) None
      & info [ "dot" ] ~docv:"FILE" ~doc:"Write a graphviz rendering to $(docv).")
  in
  let stats =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:
            "Print builder statistics: state/transition counts, BFS \
             rounds, peak frontier, and peak segment memory.")
  in
  Cmd.v
    (Cmd.info "lts" ~doc:"Build the labelled transition system and report its size")
    Term.(
      const run $ file_arg $ max_states_arg $ verbose $ dot $ stats $ jobs_arg
      $ common_term)

(* minimize *)

let cmd_minimize =
  let run file max_states weak jobs () =
    apply_jobs jobs;
    handle (fun () ->
        let el = load file in
        let lts = Lts.of_spec ~max_states el.Elaborate.spec in
        Format.printf "original : %a@." Lts.pp_stats lts;
        let minimized =
          if weak then Bisim.minimize_weak lts else Bisim.minimize_strong lts
        in
        Format.printf "minimized: %a (%s bisimulation)@." Lts.pp_stats minimized
          (if weak then "weak" else "strong"))
  in
  let weak =
    Arg.(value & flag & info [ "weak" ] ~doc:"Minimize up to weak bisimulation.")
  in
  Cmd.v
    (Cmd.info "minimize" ~doc:"Minimize the state space up to (weak) bisimulation")
    Term.(const run $ file_arg $ max_states_arg $ weak $ jobs_arg $ common_term)

(* noninterference *)

let cmd_noninterference =
  let run file max_states high low branching jobs () =
    apply_jobs jobs;
    handle (fun () ->
        if high = [] then begin
          Printf.eprintf "--high must list at least one DPM command action\n";
          exit 2
        end;
        if low = [] then begin
          Printf.eprintf "--low must list the client-observable actions\n";
          exit 2
        end;
        let el = load file in
        let lts = Lts.of_spec ~max_states el.Elaborate.spec in
        let front = NI.front lts ~high:(NI.mem_of high) ~low:(NI.mem_of low) in
        if branching then begin
          if Bisim.branching_front_secure front then
            Format.printf
              "SECURE (branching bisimulation): the DPM does not interfere \
               with the low behavior@."
          else begin
            Format.printf "INSECURE under branching bisimulation";
            (match NI.front_verdict front with
            | NI.Secure ->
                Format.printf
                  " (but the paper's weak-bisimulation check passes: only the \
                   branching structure of internal stuttering differs)@."
            | NI.Insecure _ as v -> Format.printf "@.%a@." NI.pp_verdict v);
            exit 1
          end
        end
        else begin
          let verdict = NI.front_verdict front in
          Format.printf "%a@." NI.pp_verdict verdict;
          match verdict with NI.Secure -> () | NI.Insecure _ -> exit 1
        end)
  in
  let branching =
    Arg.(
      value & flag
      & info [ "branching" ]
          ~doc:"Use branching bisimilarity (stricter than the paper's weak check).")
  in
  let high =
    Arg.(
      value & opt (list string) []
      & info [ "high" ] ~docv:"ACTIONS" ~doc:"DPM command actions (comma separated).")
  in
  let low =
    Arg.(
      value & opt (list string) []
      & info [ "low" ] ~docv:"ACTIONS"
          ~doc:"Client-observable actions (comma separated).")
  in
  Cmd.v
    (Cmd.info "noninterference"
       ~doc:"Check that the high actions are transparent to the low observer")
    Term.(
      const run $ file_arg $ max_states_arg $ high $ low $ branching $ jobs_arg
      $ common_term)

(* solve *)

let cmd_solve =
  let run file max_states measures_file () =
    handle (fun () ->
        let el = load file in
        let measures = load_measures measures_file in
        let analysis = Markov.analyze ~max_states el.Elaborate.spec measures in
        Format.printf "%d reachable states, %d tangible@." analysis.Markov.states
          analysis.Markov.tangible;
        List.iter
          (fun (name, v) -> Format.printf "%-24s %.6g@." name v)
          analysis.Markov.values)
  in
  Cmd.v
    (Cmd.info "solve"
       ~doc:"Solve the underlying CTMC and evaluate reward-based measures")
    Term.(const run $ file_arg $ max_states_arg $ measures_arg $ common_term)

(* simulate *)

let cmd_simulate =
  let run file max_states measures_file runs duration warmup seed exponential
      batches jobs () =
    apply_jobs jobs;
    handle (fun () ->
        let el = load file in
        let measures = load_measures measures_file in
        let lts = Lts.of_spec ~max_states el.Elaborate.spec in
        let timing = General.timing_of_list el.Elaborate.general_timings in
        let timing =
          if exponential then Dpma_sim.Sim.exponential_assignment timing
          else timing
        in
        let named_summaries =
          if batches > 0 then begin
            (* Single long run, batch-means estimation: [duration] is the
               per-batch window. *)
            let compiled = Measure.compile_sim lts measures in
            let summaries =
              Dpma_sim.Sim.batch_means ~timing ~warmup ~lts ~batches
                ~batch_duration:duration
                ~estimands:(Measure.estimands compiled)
                ~seed ()
            in
            Measure.values compiled summaries
          end
          else
            General.simulate lts ~timing ~measures
              (sim_params runs duration warmup seed)
            |> List.map (fun { General.measure; summary } -> (measure, summary))
        in
        List.iter
          (fun (measure, (summary : Stats.summary)) ->
            Format.printf "%-24s %.6g +/- %.4g (%d %s, %.0f%% CI)@." measure
              summary.Stats.mean summary.Stats.half_width summary.Stats.n
              (if batches > 0 then "batches" else "runs")
              (100.0 *. summary.Stats.confidence))
          named_summaries)
  in
  let exponential =
    Arg.(
      value & flag
      & info [ "exponential" ]
          ~doc:"Replace every general distribution by the exponential of the same mean.")
  in
  let batches =
    Arg.(
      value & opt int 0
      & info [ "batches" ] ~docv:"N"
          ~doc:
            "Use single-run batch-means estimation with $(docv) batches of \
             --duration each, instead of independent replications.")
  in
  Cmd.v
    (Cmd.info "simulate"
       ~doc:"Simulate the general-distribution model and estimate the measures")
    Term.(
      const run $ file_arg $ max_states_arg $ measures_arg $ runs_arg
      $ duration_arg $ warmup_arg $ seed_arg $ exponential $ batches $ jobs_arg
      $ common_term)

(* validate *)

let cmd_validate =
  let run file max_states measures_file runs duration warmup seed jobs () =
    apply_jobs jobs;
    handle (fun () ->
        let el = load file in
        let measures = load_measures measures_file in
        let lts = Lts.of_spec ~max_states el.Elaborate.spec in
        let timing = General.timing_of_list el.Elaborate.general_timings in
        let v =
          General.validate lts ~timing ~measures (sim_params runs duration warmup seed)
        in
        Format.printf "%a@." General.pp_validation v;
        if not v.General.consistent then exit 1)
  in
  Cmd.v
    (Cmd.info "validate"
       ~doc:"Cross-validate the general model against the Markovian solution")
    Term.(
      const run $ file_arg $ max_states_arg $ measures_arg $ runs_arg
      $ duration_arg $ warmup_arg $ seed_arg $ jobs_arg $ common_term)

(* assess: the full three-phase pipeline *)

let cmd_assess =
  let run file max_states measures_file high low runs duration warmup seed jobs
      () =
    apply_jobs jobs;
    handle (fun () ->
        if high = [] || low = [] then begin
          Printf.eprintf "--high and --low are required for the functional phase\n";
          exit 2
        end;
        let el = load file in
        let measures = load_measures measures_file in
        let study =
          {
            Dpma_core.Pipeline.study_name = Filename.basename file;
            spec = el.Elaborate.spec;
            functional_spec = None;
            high;
            low;
            measures;
            general_timings = el.Elaborate.general_timings;
          }
        in
        let report =
          Dpma_core.Pipeline.assess ~max_states
            ~sim_params:(sim_params runs duration warmup seed)
            study
        in
        Format.printf "%a@." Dpma_core.Pipeline.pp_report report)
  in
  Cmd.v
    (Cmd.info "assess"
       ~doc:
         "Run the paper's full incremental methodology: noninterference, \
          Markovian comparison, validation, general-model simulation")
    Term.(
      const run $ file_arg $ max_states_arg $ measures_arg
      $ Arg.(
          value & opt (list string) []
          & info [ "high" ] ~docv:"ACTIONS" ~doc:"DPM command actions.")
      $ Arg.(
          value & opt (list string) []
          & info [ "low" ] ~docv:"ACTIONS" ~doc:"Client-observable actions.")
      $ runs_arg $ duration_arg $ warmup_arg $ seed_arg $ jobs_arg $ common_term)

(* trace *)

let cmd_trace =
  let run file max_states events seed exponential () =
    handle (fun () ->
        let el = load file in
        let lts = Lts.of_spec ~max_states el.Elaborate.spec in
        let timing = General.timing_of_list el.Elaborate.general_timings in
        let timing =
          if exponential then Dpma_sim.Sim.exponential_assignment timing
          else timing
        in
        let remaining = ref events in
        let trace ~time ~action ~state =
          if !remaining > 0 then begin
            decr remaining;
            Format.printf "%12.4f  %-48s -> %s@." time action
              (lts.Lts.state_name state)
          end;
          if !remaining = 0 then raise Exit
        in
        Format.printf "%12s  %-48s    %s@." "time" "action" "entered state";
        (try
           ignore
             (Dpma_sim.Sim.run ~timing ~trace ~lts ~duration:1e12
                ~estimands:[]
                (Dpma_util.Prng.create seed))
         with Exit -> ()))
  in
  let events =
    Arg.(
      value & opt int 25
      & info [ "events"; "n" ] ~docv:"N" ~doc:"Number of events to print.")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Print the first events of one simulation run (debugging aid)")
    Term.(
      const run $ file_arg $ max_states_arg $ events $ seed_arg
      $ Arg.(
          value & flag
          & info [ "exponential" ]
              ~doc:"Exponentialize the general distributions first.")
      $ common_term)

(* transient *)

let cmd_transient =
  let run file max_states measures_file time () =
    handle (fun () ->
        let el = load file in
        let measures = load_measures measures_file in
        let lts = Lts.of_spec ~max_states el.Elaborate.spec in
        let ctmc = Markov.build_ctmc lts in
        Format.printf "state-reward measures at t = %g:@." time;
        List.iter
          (fun m ->
            let state_clauses =
              List.filter
                (fun c -> c.Measure.kind = Measure.State_reward)
                m.Measure.clauses
            in
            if state_clauses <> [] then begin
              let reward s =
                List.fold_left
                  (fun acc c ->
                    if Dpma_ctmc.Ctmc.enables_action ctmc s c.Measure.action
                    then acc +. c.Measure.reward
                    else acc)
                  0.0 state_clauses
              in
              Format.printf "%-24s %.6g@." m.Measure.name
                (Dpma_ctmc.Ctmc.transient_reward ctmc time reward)
            end)
          measures)
  in
  let time =
    Arg.(
      required
      & opt (some float) None
      & info [ "time"; "t" ] ~docv:"T" ~doc:"Time point (model time units).")
  in
  Cmd.v
    (Cmd.info "transient"
       ~doc:"Evaluate state-reward measures at a time point (uniformization)")
    Term.(const run $ file_arg $ max_states_arg $ measures_arg $ time $ common_term)

(* firstpassage *)

let cmd_firstpassage =
  let run file max_states action () =
    handle (fun () ->
        let el = load file in
        let lts = Lts.of_spec ~max_states el.Elaborate.spec in
        let ctmc = Markov.build_ctmc lts in
        let target s = Dpma_ctmc.Ctmc.enables_action ctmc s action in
        let any_target = ref false in
        for s = 0 to ctmc.Dpma_ctmc.Ctmc.n - 1 do
          if target s then any_target := true
        done;
        if not !any_target then
          Format.printf
            "note: no tangible state enables %s — immediate actions only \
             occur in vanishing states, which the CTMC eliminates; pick a \
             timed or monitor action instead@."
            action;
        let p = Dpma_ctmc.Ctmc.reachability_probability ctmc ~target in
        let t = Dpma_ctmc.Ctmc.mean_time_to ctmc ~target in
        Format.printf "target: states enabling %s@." action;
        Format.printf "reachability probability: %.6g@." p;
        if t = infinity then
          Format.printf
            "mean first-passage time: infinite (a reachable state cannot \
             reach the target)@."
        else Format.printf "mean first-passage time: %.6g@." t)
  in
  let action =
    Arg.(
      required
      & opt (some string) None
      & info [ "enables"; "e" ] ~docv:"ACTION"
          ~doc:"Target: the set of states enabling this action.")
  in
  Cmd.v
    (Cmd.info "firstpassage"
       ~doc:"Mean time until a state enabling the given action is first reached")
    Term.(const run $ file_arg $ max_states_arg $ action $ common_term)

(* family *)

let cmd_family =
  let run file max_states sweep measures_file stats_flag jobs () =
    apply_jobs jobs;
    handle (fun () ->
        let archi = Parser.parse (read_file file) in
        let fam = Elaborate.elaborate_family ?sweep archi in
        let specs =
          Array.map (fun m -> m.Elaborate.spec) fam.Elaborate.members
        in
        let measures = Option.map load_measures measures_file in
        let r = Markov.family ~max_states ?jobs ?measures specs in
        Format.printf "family %s: %d member(s) over %s@." archi.Ast.name
          (Array.length specs)
          (String.concat ", "
             (List.map
                (fun (name, dom) ->
                  Printf.sprintf "%s in {%s}" name
                    (String.concat ", " (List.map string_of_int dom)))
                fam.Elaborate.features));
        let stats = r.Markov.stats in
        Format.printf
          "featured union: %d states, %d transitions, %d distinct guards@."
          r.Markov.union_states r.Markov.union_transitions
          stats.Flts.guard_count;
        if stats_flag then begin
          print_build_stats stats.Flts.build;
          Format.printf "guard table      : %d guards, %d words@."
            stats.Flts.guard_count stats.Flts.guard_words
        end;
        let summed =
          Array.fold_left (fun acc l -> acc + l.Lts.num_states) 0 r.Markov.members
        in
        Format.printf
          "sharing: %d union states stand for %d summed member states \
           (%.2fx)@."
          r.Markov.union_states summed
          (float_of_int summed /. float_of_int r.Markov.union_states);
        let binding_string c =
          match fam.Elaborate.bindings.(c) with
          | [] -> "-"
          | b ->
              String.concat ", "
                (List.map (fun (name, v) -> Printf.sprintf "%s=%d" name v) b)
        in
        match r.Markov.solved with
        | None ->
            Format.printf "@.%-28s %-10s %s@." "binding" "states" "transitions";
            Array.iteri
              (fun c lts ->
                Format.printf "%-28s %-10d %d@." (binding_string c)
                  lts.Lts.num_states (Lts.num_transitions lts))
              r.Markov.members
        | Some (analyses, solve_stats) ->
            (* Deduplicated solves: members with the same CTMC share
               one steady-state solution. *)
            Format.printf
              "solves: %d distinct quotient(s) for %d member(s), %d shared@."
              solve_stats.Markov.distinct_quotients solve_stats.Markov.members
              solve_stats.Markov.solves_shared;
            Format.printf "@.%-28s" "binding";
            List.iter
              (fun (name, _) -> Format.printf " %-14s" name)
              analyses.(0).Markov.values;
            Format.printf "@.";
            Array.iteri
              (fun c (a : Markov.analysis) ->
                Format.printf "%-28s" (binding_string c);
                List.iter (fun (_, v) -> Format.printf " %-14.6g" v) a.Markov.values;
                Format.printf "@.")
              analyses)
  in
  let sweep =
    Arg.(
      value
      & opt (some (list string)) None
      & info [ "sweep" ] ~docv:"FEATURES"
          ~doc:
            "Vary only the comma-separated $(docv) (a cartesian sweep grid \
             when several are named); every other feature is pinned to the \
             first value of its domain.")
  in
  let measures_opt =
    Arg.(
      value
      & opt (some file) None
      & info [ "measures"; "m" ] ~docv:"FILE"
          ~doc:
            "Measure definitions; when given, each member's CTMC is solved \
             and the per-configuration values are tabulated.")
  in
  let stats_flag =
    Arg.(
      value & flag
      & info [ "stats" ] ~doc:"Print featured-build statistics.")
  in
  Cmd.v
    (Cmd.info "family"
       ~doc:
         "Analyze a whole feature family: one featured state-space build, \
          one cheap projection per configuration")
    Term.(
      const run $ file_arg $ max_states_arg $ sweep $ measures_opt $ stats_flag
      $ jobs_arg $ common_term)

(* sec3 / figures *)

let cmd_sec3 =
  let run jobs () =
    apply_jobs jobs;
    handle (fun () ->
        Format.printf "%a@." Figures.pp_sec3 (Figures.sec3_noninterference ()))
  in
  Cmd.v
    (Cmd.info "sec3" ~doc:"Reproduce the Sect. 3 noninterference results of the paper")
    Term.(const run $ jobs_arg $ common_term)

let cmd_figures =
  let run only fast jobs () =
    apply_jobs jobs;
    handle (fun () ->
        Figures.print ~only
          (if fast then Figures.Quick else Figures.Full)
          Format.std_formatter)
  in
  let which =
    Arg.(
      value
      & pos_all (enum (List.map (fun n -> (n, n)) Figures.section_names)) []
      & info [] ~docv:"SECTION"
          ~doc:
            (Printf.sprintf "Sections to regenerate, printed in suite order: %s. \
               Default: all."
               (String.concat ", " Figures.section_names)))
  in
  let fast =
    Arg.(
      value & flag
      & info [ "fast" ]
          ~doc:"Smaller sweeps and shorter simulations (the benchmark's quick size).")
  in
  Cmd.v
    (Cmd.info "figures" ~doc:"Regenerate the paper's evaluation figures")
    Term.(const run $ which $ fast $ jobs_arg $ common_term)

let () =
  Report.init_from_env ();
  at_exit (fun () -> Report.emit stderr);
  let doc = "assess dynamic power management: functionality and performance" in
  let info = Cmd.info "dpma" ~version:"1.0.0" ~doc in
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  exit
    (Cmd.eval
       (Cmd.group ~default info
          [
            cmd_parse; cmd_lts; cmd_minimize; cmd_noninterference; cmd_solve;
            cmd_simulate; cmd_validate; cmd_assess; cmd_transient; cmd_firstpassage;
            cmd_trace; cmd_family; cmd_sec3; cmd_figures;
          ]))
