module Lts = Dpma_lts.Lts
module Ctmc = Dpma_ctmc.Ctmc
module Measure = Dpma_measures.Measure

type analysis = {
  states : int;
  tangible : int;
  values : (string * float) list;
}

(* One member's values: every measure on the member's own CTMC under
   [pi], a stationary distribution of that chain or of one with the same
   {!Solve_key}. *)
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
let analyze_lts lts measures =
  let module Trace = Dpma_obs.Trace in
  Trace.with_span "markov.analyze"
    ~attrs:[ ("states", Trace.Int lts.Lts.num_states) ] (fun () ->
  let ctmc =
    Trace.with_span "ctmc.build"
      ~attrs:[ ("lts_states", Trace.Int lts.Lts.num_states) ]
      (fun () -> Ctmc.of_lts lts)
  in
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

(* Key of everything {!Ctmc.steady_state} reads: state count, initial
   distribution, and the per-state ordered (target, rate) rows. Label ids
   are deliberately excluded, so members differing only in labels share
   one solve. Rates compare by their exact 64-bit patterns, so equal keys
   mean the solver runs on identical numbers and returns identical
   bits. *)
module Solve_key = Hashtbl.Make (struct
  type t = Ctmc.t

  let same x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)

  let bits x = Int64.to_int (Int64.bits_of_float x)

  let floats_equal a b =
    Array.length a = Array.length b
    &&
    let rec go i = i < 0 || (same a.(i) b.(i) && go (i - 1)) in
    go (Array.length a - 1)

  let equal (a : t) (b : t) =
    a.n = b.n && a.init_state = b.init_state && a.row = b.row
    && a.dst = b.dst
    && floats_equal a.init_prob b.init_prob
    && floats_equal a.rate b.rate

  let hash (c : t) =
    let module H = Dpma_util.Hash in
    let fold_floats h a = Array.fold_left (fun h x -> H.fold h (bits x)) h a in
    let h = H.fold_ints c.n c.init_state in
    let h = H.fold_ints (fold_floats h c.init_prob) c.row in
    H.int (fold_floats (H.fold_ints h c.dst) c.rate)
end)

let analyze_ltss_dedup ?jobs ltss measures =
  let members = Array.length ltss in
  if members = 0 then invalid_arg "Markov.analyze_ltss_dedup: empty family";
  let module Trace = Dpma_obs.Trace in
  Trace.with_span "markov.dedup" ~attrs:[ ("members", Trace.Int members) ]
    (fun () ->
  (* Group members by key; representatives in first-appearance order so
     the set of solves is deterministic. *)
  let ctmcs, rep_idx, reps =
    Trace.with_span "markov.dedup.key" (fun () ->
        let ctmcs =
          Array.of_list
            (Dpma_util.Pool.parallel_map ?jobs Ctmc.of_lts (Array.to_list ltss))
        in
        let rep_of_key = Solve_key.create 64 in
        let reps = ref [] and nreps = ref 0 in
        let rep_idx =
          Array.map
            (fun ctmc ->
              match Solve_key.find_opt rep_of_key ctmc with
              | Some r -> r
              | None ->
                  let r = !nreps in
                  incr nreps;
                  Solve_key.add rep_of_key ctmc r;
                  reps := ctmc :: !reps;
                  r)
            ctmcs
        in
        (ctmcs, rep_idx, List.rev !reps))
  in
  let pis =
    Trace.with_span "markov.dedup.solve"
      ~attrs:[ ("solves", Trace.Int (List.length reps)) ]
      (fun () ->
        Array.of_list (Dpma_util.Pool.parallel_map ?jobs Ctmc.steady_state reps))
  in
  let results =
    Trace.with_span "markov.dedup.evaluate" (fun () ->
        Array.mapi
          (fun i lts -> evaluate lts ctmcs.(i) pis.(rep_idx.(i)) measures)
          ltss)
  in
  let distinct = Array.length pis in
  let stats =
    { members; distinct_quotients = distinct;
      solves_shared = members - distinct }
  in
  let module I = Dpma_obs.Instruments in
  Dpma_obs.Metrics.set I.family_distinct_quotients
    (float_of_int stats.distinct_quotients);
  Dpma_obs.Metrics.set I.family_solves_shared
    (float_of_int stats.solves_shared);
  (results, stats))

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
