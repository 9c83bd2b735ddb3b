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
  Trace.with_span "markov.evaluate"
    ~attrs:[ ("measures", Trace.Int (List.length measures)) ]
    (fun () -> evaluate lts ctmc pi measures))

let analyze_lts_lumped lts measures =
  let partition = Dpma_lts.Bisim.markovian_partition lts in
  let lumped = Lts.quotient_by_representative lts partition in
  analyze_lts lumped measures

let analyze ?max_states spec measures =
  analyze_lts (Lts.of_spec ?max_states spec) measures

(* --- Deduplicated family solves -------------------------------------- *)

type family_solve_stats = {
  members : int;
  structures : int;
  distinct_quotients : int;
  solves_shared : int;
}

(* Members keyed in two levels, each member hashed once: its plan (the
   structure its CTMC build reads), then its timed rates within the
   plan. Returns each member's plan and distinct-member indices, the
   first member of each plan and of each distinct member, in first
   appearance order. *)
let key_members ltss =
  let n = Array.length ltss in
  let plan_h = Array.map Ctmc.plan_hash ltss in
  let rates_h = Array.map Ctmc.rates_hash ltss in
  let plan_of = Array.make n 0 and rep_of = Array.make n 0 in
  let module Plans = Hashtbl.Make (struct
    type t = int

    let hash i = plan_h.(i)

    let equal i j = plan_h.(i) = plan_h.(j) && Ctmc.same_plan ltss.(i) ltss.(j)
  end) in
  let module Reps = Hashtbl.Make (struct
    type t = int

    let hash i = Dpma_util.Hash.fold plan_of.(i) rates_h.(i)

    let equal i j =
      plan_of.(i) = plan_of.(j) && rates_h.(i) = rates_h.(j)
      && Ctmc.same_rates ltss.(i) ltss.(j)
  end) in
  let plans = Plans.create n and reps = Reps.create n in
  let nplans = ref 0 and plan_firsts = ref [] in
  let nreps = ref 0 and rep_firsts = ref [] in
  let fresh count firsts i =
    firsts := i :: !firsts;
    incr count;
    !count - 1
  in
  for i = 0 to n - 1 do
    plan_of.(i) <-
      (match Plans.find_opt plans i with
      | Some p -> p
      | None ->
          let p = fresh nplans plan_firsts i in
          Plans.add plans i p;
          p);
    rep_of.(i) <-
      (match Reps.find_opt reps i with
      | Some r -> r
      | None ->
          let r = fresh nreps rep_firsts i in
          Reps.add reps i r;
          r)
  done;
  (plan_of, rep_of, List.rev !plan_firsts, List.rev !rep_firsts)

let analyze_ltss_dedup ?jobs ltss measures =
  let members = Array.length ltss in
  if members = 0 then invalid_arg "Markov.analyze_ltss_dedup: empty family";
  let module Trace = Dpma_obs.Trace in
  Trace.with_span "markov.dedup" ~attrs:[ ("members", Trace.Int members) ]
    (fun () ->
  (* Equal CSRs give equal CTMCs, stationary distributions and measure
     values, so each distinct member LTS is analyzed once, and distinct
     members with one plan share its build and graph work.
     Representatives in first-appearance order keep the set of solves,
     and the first error raised, independent of [jobs]. *)
  let plan_of, rep_of, plan_firsts, reps =
    Trace.with_span "markov.dedup.key" (fun () ->
        let (_, _, plan_firsts, _) as keyed = key_members ltss in
        Trace.add_attr "structures" (Trace.Int (List.length plan_firsts));
        keyed)
  in
  (* The default job count gives each worker at least 8192 transitions
     to fill and solve: on an otherwise idle 2-vCPU host a second domain
     lost at 12,544 transitions (5 of 6 runs), broke about even at
     18,816 and won at 25,088 (6 of 6). *)
  let jobs =
    match jobs with
    | Some j -> j
    | None ->
        let work =
          List.fold_left (fun acc i -> acc + Lts.num_transitions ltss.(i)) 0 reps
        in
        max 1 (min (Dpma_util.Pool.default_jobs ()) (work / 8192))
  in
  let solved =
    Trace.with_span "markov.dedup.solve"
      ~attrs:[ ("solves", Trace.Int (List.length reps)) ]
      (fun () ->
        (* The plans are built in order on this domain. A plan that
           fails is raised by its members' solves, so the error raised is
           the one [analyze_lts] raises on the first failing member. *)
        let plans =
          Array.of_list
            (List.map
               (fun i ->
                 match Ctmc.plan ltss.(i) with
                 | p -> Ok (p, Ctmc.graph p ltss.(i))
                 | exception e -> Error e)
               plan_firsts)
        in
        (* [analyze_lts] without its spans: one span for all the solves. *)
        let analyze i =
          match plans.(plan_of.(i)) with
          | Error e -> raise e
          | Ok (plan, graph) ->
              let lts = ltss.(i) in
              let ctmc = Ctmc.fill plan lts in
              evaluate lts ctmc (Ctmc.steady_state ~graph ctmc) measures
        in
        Array.of_list (Dpma_util.Pool.parallel_map ~jobs analyze reps))
  in
  let distinct = Array.length solved in
  let stats =
    { members; structures = List.length plan_firsts;
      distinct_quotients = distinct; solves_shared = members - distinct }
  in
  let module I = Dpma_obs.Instruments in
  Dpma_obs.Metrics.set I.family_distinct_quotients
    (float_of_int stats.distinct_quotients);
  Dpma_obs.Metrics.set I.family_solves_shared
    (float_of_int stats.solves_shared);
  (Array.map (Array.get solved) rep_of, stats))

(* --- The family entry ------------------------------------------------ *)

type family = {
  union_states : int;
  union_transitions : int;
  stats : Dpma_lts.Flts.family_stats;
  members : Lts.t array;
  solved : (analysis array * family_solve_stats) option;
  build_seconds : float;
  project_seconds : float;
  analyze_seconds : float;
}

let family ?max_states ?jobs ?measures specs =
  let module Flts = Dpma_lts.Flts in
  let clocked f =
    let t0 = Dpma_obs.Clock.now_s () in
    let r = f () in
    (r, Dpma_obs.Clock.now_s () -. t0)
  in
  let (union, stats), build_seconds =
    clocked (fun () -> Flts.build_family ?max_states ?jobs specs)
  in
  let union_states = union.Flts.num_states
  and union_transitions = Flts.num_transitions union in
  (* The projection keeps [project_all]'s one-job default whatever
     [jobs] is: a second domain cost more than it saved at every family
     size measured. *)
  let members, project_seconds = clocked (fun () -> Flts.project_all union) in
  let solved, analyze_seconds =
    match measures with
    | None -> (None, 0.0)
    | Some measures ->
        let r, dt = clocked (fun () -> analyze_ltss_dedup ?jobs members measures) in
        (Some r, dt)
  in
  { union_states; union_transitions; stats; members; solved; build_seconds;
    project_seconds; analyze_seconds }

let without_dpm lts ~high =
  Lts.restrict lts ~remove:(fun a -> List.exists (String.equal a) high)

let compare_dpm ?max_states spec ~high measures =
  let lts = Lts.of_spec ?max_states spec in
  let with_dpm = analyze_lts lts measures in
  let no_dpm = analyze_lts (without_dpm lts ~high) measures in
  (with_dpm, no_dpm)

let value analysis name = List.assoc name analysis.values
