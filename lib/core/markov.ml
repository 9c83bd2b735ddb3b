module Lts = Dpma_lts.Lts
module Ctmc = Dpma_ctmc.Ctmc
module Measure = Dpma_measures.Measure

type analysis = {
  states : int;
  tangible : int;
  values : (string * float) list;
}

(* Every measure on [ctmc], [lts]'s chain, under its stationary
   distribution [pi]. *)
let evaluate lts ctmc pi measures =
  let t0 = Dpma_obs.Clock.now_s () in
  let values =
    List.map (fun m -> (m.Measure.name, Measure.eval_ctmc ctmc pi m)) measures
  in
  if measures <> [] then
    Dpma_obs.Metrics.observe Dpma_obs.Instruments.ctmc_reward_seconds
      (Dpma_obs.Clock.now_s () -. t0);
  { states = lts.Lts.num_states; tangible = ctmc.Ctmc.n; values }

(* The CTMC build and solve spans open here, not in [Ctmc]: a family's
   deduplicated solves ([analyze_ltss_dedup]) open one span per phase,
   not one per member. *)
let build_ctmc lts =
  Dpma_obs.Trace.with_span "ctmc.build"
    ~attrs:[ ("lts_states", Dpma_obs.Trace.Int lts.Lts.num_states) ]
    (fun () -> Ctmc.of_lts lts)

let analyze_lts lts measures =
  let module Trace = Dpma_obs.Trace in
  Trace.with_span "markov.analyze"
    ~attrs:[ ("states", Trace.Int lts.Lts.num_states) ] (fun () ->
  let ctmc = build_ctmc lts in
  let pi =
    Trace.with_span "ctmc.solve"
      ~attrs:[ ("states", Trace.Int ctmc.Ctmc.n) ]
      (fun () -> Ctmc.steady_state ctmc)
  in
  evaluate lts ctmc pi measures)

let analyze_lts_lumped lts measures =
  let partition = Dpma_lts.Bisim.markovian_partition lts in
  let lumped = Lts.quotient_by_representative lts partition in
  analyze_lts lumped measures

let analyze ?max_states spec measures =
  analyze_lts (Lts.of_spec ?max_states spec) measures

let family_ltss ?max_states ?jobs specs =
  let fam, _stats = Dpma_lts.Flts.build_family ?max_states ?jobs specs in
  Dpma_lts.Flts.project_all ?jobs fam

(* --- Deduplicated family solves -------------------------------------- *)

type family_solve_stats = {
  members : int;
  distinct_quotients : int;
  solves_shared : int;
}

module Lts_tbl = Hashtbl.Make (Lts)

let analyze_ltss_dedup ?jobs ltss measures =
  let members = Array.length ltss in
  if members = 0 then invalid_arg "Markov.analyze_ltss_dedup: empty family";
  let module Trace = Dpma_obs.Trace in
  Trace.with_span "markov.dedup" ~attrs:[ ("members", Trace.Int members) ]
    (fun () ->
  (* Equal CSRs give equal CTMCs, stationary distributions and measure
     values, so each distinct member LTS is analyzed once.
     Representatives in first-appearance order keep the set of solves,
     and the first error raised, independent of [jobs]. *)
  let rep_idx, reps =
    Trace.with_span "markov.dedup.key" (fun () ->
        let rep_of = Lts_tbl.create 64 in
        let reps = ref [] and nreps = ref 0 in
        let rep_idx =
          Array.map
            (fun lts ->
              match Lts_tbl.find_opt rep_of lts with
              | Some r -> r
              | None ->
                  let r = !nreps in
                  incr nreps;
                  Lts_tbl.add rep_of lts r;
                  reps := lts :: !reps;
                  r)
            ltss
        in
        (rep_idx, List.rev !reps))
  in
  (* [analyze_lts] without its spans: one span for all the solves. *)
  let analyze lts =
    let ctmc = Ctmc.of_lts lts in
    evaluate lts ctmc (Ctmc.steady_state ctmc) measures
  in
  (* The default job count gives each worker at least 4096 transitions
     to solve: on an otherwise idle 2-vCPU host a second domain lost
     below about 6300 transitions and won from about 12,500. *)
  let jobs =
    match jobs with
    | Some j -> j
    | None ->
        let work =
          List.fold_left (fun acc l -> acc + Lts.num_transitions l) 0 reps
        in
        max 1 (min (Dpma_util.Pool.default_jobs ()) (work / 4096))
  in
  let solved =
    Trace.with_span "markov.dedup.solve"
      ~attrs:[ ("solves", Trace.Int (List.length reps)) ]
      (fun () ->
        Array.of_list (Dpma_util.Pool.parallel_map ~jobs analyze reps))
  in
  let distinct = Array.length solved in
  let stats =
    { members; distinct_quotients = distinct;
      solves_shared = members - distinct }
  in
  let module I = Dpma_obs.Instruments in
  Dpma_obs.Metrics.set I.family_distinct_quotients
    (float_of_int stats.distinct_quotients);
  Dpma_obs.Metrics.set I.family_solves_shared
    (float_of_int stats.solves_shared);
  (Array.map (Array.get solved) rep_idx, stats))

let analyze_family ?max_states ?jobs specs measures =
  fst (analyze_ltss_dedup ?jobs (family_ltss ?max_states ?jobs specs) measures)

let without_dpm lts ~high =
  Lts.restrict lts ~remove:(fun a -> List.exists (String.equal a) high)

let compare_dpm ?max_states spec ~high measures =
  let lts = Lts.of_spec ?max_states spec in
  let with_dpm = analyze_lts lts measures in
  let no_dpm = analyze_lts (without_dpm lts ~high) measures in
  (with_dpm, no_dpm)

let value analysis name = List.assoc name analysis.values
