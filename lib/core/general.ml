module Lts = Dpma_lts.Lts
module Sim = Dpma_sim.Sim
module Measure = Dpma_measures.Measure
module Stats = Dpma_util.Stats
module Dist = Dpma_dist.Dist

type sim_params = {
  runs : int;
  duration : float;
  warmup : float;
  confidence : float;
  seed : int;
  jobs : int option;
}

let default_sim_params =
  {
    runs = 30;
    duration = 20_000.0;
    warmup = 2_000.0;
    confidence = 0.90;
    seed = 42;
    jobs = None;
  }

type estimate = { measure : string; summary : Stats.summary }

let simulate lts ~timing ~measures params =
  let compiled = Measure.compile_sim lts measures in
  let summaries =
    Sim.replicate ~timing ~warmup:params.warmup ~confidence:params.confidence
      ?jobs:params.jobs ~lts ~duration:params.duration
      ~estimands:(Measure.estimands compiled)
      ~runs:params.runs ~seed:params.seed ()
  in
  Measure.values compiled summaries
  |> List.map (fun (measure, summary) -> { measure; summary })

let timing_of_list entries action =
  List.assoc_opt action entries
  |> Option.map (fun d -> Sim.Timed d)

type validation_line = {
  name : string;
  markovian : float;
  simulated : Stats.summary;
  relative_error : float;
  within_interval : bool;
}

type validation = { lines : validation_line list; consistent : bool }

let validate ?(tolerance = 0.15) ?markovian lts ~timing ~measures params =
  let markovian =
    match markovian with
    | Some m -> m
    | None -> Markov.analyze_lts lts measures
  in
  let exponential = Sim.exponential_assignment timing in
  let estimates = simulate lts ~timing:exponential ~measures params in
  let lines =
    List.map
      (fun { measure; summary } ->
        let reference = Markov.value markovian measure in
        let relative_error =
          Stats.relative_error ~reference summary.Stats.mean
        in
        let slack =
          summary.Stats.half_width +. (tolerance *. abs_float reference)
          +. 1e-9
        in
        let within_interval =
          abs_float (summary.Stats.mean -. reference) <= slack
        in
        {
          name = measure;
          markovian = reference;
          simulated = summary;
          relative_error;
          within_interval;
        })
      estimates
  in
  { lines; consistent = List.for_all (fun l -> l.within_interval) lines }

let pp_validation ppf v =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun l ->
      Format.fprintf ppf
        "%-24s markov=%-12.6g sim=%-12.6g +/-%-10.4g relerr=%5.1f%% %s@," l.name
        l.markovian l.simulated.Stats.mean l.simulated.Stats.half_width
        (100.0 *. l.relative_error)
        (if l.within_interval then "OK" else "MISMATCH"))
    v.lines;
  Format.fprintf ppf "validation: %s@]"
    (if v.consistent then "CONSISTENT" else "INCONSISTENT")
