module Lts = Dpma_lts.Lts
module Stats = Dpma_util.Stats

type study = {
  study_name : string;
  spec : Dpma_pa.Term.spec;
  functional_spec : Dpma_pa.Term.spec option;
  high : string list;
  low : string list;
  measures : Dpma_measures.Measure.t list;
  general_timings : (string * Dpma_dist.Dist.t) list;
}

type report = {
  verdict : Noninterference.verdict;
  trace_secure : bool;
  branching_secure : bool;
  markovian_with_dpm : Markov.analysis;
  markovian_without_dpm : Markov.analysis;
  validation : General.validation;
  general_with_dpm : General.estimate list;
  general_without_dpm : General.estimate list;
}

let assess ?(sim_params = General.default_sim_params) ?max_states ?jobs study =
  let span = Dpma_obs.Trace.with_span in
  span "pipeline.assess"
    ~attrs:[ ("study", Dpma_obs.Trace.Str study.study_name) ] (fun () ->
  let functional =
    Option.value ~default:study.spec study.functional_spec
  in
  (* The functional LTS is built once and its observed pair reduced once
     for the whole hierarchy; when the study has no separate functional
     model it is also the LTS the later phases analyze. *)
  let functional_lts, (verdict, trace_secure, branching_secure) =
    span "pipeline.functional" (fun () ->
        let flts = Lts.of_spec ?max_states ?jobs functional in
        ( flts,
          Noninterference.check_hierarchy ?jobs flts
            ~high:(Noninterference.mem_of study.high)
            ~low:(Noninterference.mem_of study.low) ))
  in
  let lts =
    match study.functional_spec with
    | None -> functional_lts
    | Some _ -> Lts.of_spec ?max_states ?jobs study.spec
  in
  let lts_without, markovian_with_dpm, markovian_without_dpm =
    span "pipeline.markovian" (fun () ->
        let lts_without = Markov.without_dpm lts ~high:study.high in
        ( lts_without,
          Markov.analyze_lts lts study.measures,
          Markov.analyze_lts lts_without study.measures ))
  in
  let timing = General.timing_of_list study.general_timings in
  let validation =
    span "pipeline.validation" (fun () ->
        General.validate ~markovian:markovian_with_dpm lts ~timing
          ~measures:study.measures sim_params)
  in
  let general_with_dpm, general_without_dpm =
    span "pipeline.general" (fun () ->
        ( General.simulate lts ~timing ~measures:study.measures sim_params,
          General.simulate lts_without ~timing ~measures:study.measures
            sim_params ))
  in
  {
    verdict;
    trace_secure;
    branching_secure;
    markovian_with_dpm;
    markovian_without_dpm;
    validation;
    general_with_dpm;
    general_without_dpm;
  })

let pp_report ppf r =
  Format.fprintf ppf "@[<v>Phase 1 (functional): %a@,"
    Noninterference.pp_verdict r.verdict;
  Format.fprintf ppf
    "  Focardi-Gorrieri hierarchy: traces (SNNI) %s | weak bisim (the \
     paper's check) %s | branching bisim %s@,@,"
    (if r.trace_secure then "secure" else "INSECURE")
    (match r.verdict with
    | Noninterference.Secure -> "secure"
    | Noninterference.Insecure _ -> "INSECURE")
    (if r.branching_secure then "secure" else "INSECURE");
  Format.fprintf ppf "Phase 2 (Markovian, %d tangible states):@,"
    r.markovian_with_dpm.Markov.tangible;
  List.iter
    (fun (name, v) ->
      let without = Markov.value r.markovian_without_dpm name in
      Format.fprintf ppf "  %-24s with DPM %-12.6g without DPM %-12.6g@," name
        v without)
    r.markovian_with_dpm.Markov.values;
  Format.fprintf ppf "@,Phase 3 validation:@,%a@,@,General estimates:@,"
    General.pp_validation r.validation;
  List.iter2
    (fun (w : General.estimate) (wo : General.estimate) ->
      Format.fprintf ppf "  %-24s with DPM %-12.6g without DPM %-12.6g@,"
        w.General.measure w.General.summary.Stats.mean
        wo.General.summary.Stats.mean)
    r.general_with_dpm r.general_without_dpm;
  Format.fprintf ppf "@]"
