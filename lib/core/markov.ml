module Lts = Dpma_lts.Lts
module Ctmc = Dpma_ctmc.Ctmc
module Measure = Dpma_measures.Measure

type analysis = {
  states : int;
  tangible : int;
  values : (string * float) list;
}

let analyze_lts lts measures =
  Dpma_obs.Trace.with_span "markov.analyze"
    ~attrs:[ ("states", Dpma_obs.Trace.Int lts.Lts.num_states) ] (fun () ->
  let ctmc = Ctmc.of_lts lts in
  let pi = Ctmc.steady_state ctmc in
  let t0 = Dpma_obs.Clock.now_s () in
  let values =
    List.map (fun m -> (m.Measure.name, Measure.eval_ctmc ctmc pi m)) measures
  in
  if measures <> [] then
    Dpma_obs.Metrics.observe Dpma_obs.Instruments.ctmc_reward_seconds
      (Dpma_obs.Clock.now_s () -. t0);
  { states = lts.Lts.num_states; tangible = ctmc.Ctmc.n; values })

let analyze_lts_lumped lts measures =
  let partition = Dpma_lts.Bisim.markovian_partition lts in
  let lumped = Lts.quotient_by_representative lts partition in
  analyze_lts lumped measures

let analyze ?max_states spec measures =
  analyze_lts (Lts.of_spec ?max_states spec) measures

let family_ltss ?max_states ?jobs specs =
  let fam, _stats = Dpma_lts.Flts.build_family ?max_states ?jobs specs in
  Dpma_lts.Flts.project_all ?jobs fam

let analyze_family ?max_states ?jobs specs measures =
  let ltss = family_ltss ?max_states ?jobs specs in
  Array.of_list
    (Dpma_util.Pool.parallel_map ?jobs
       (fun lts -> analyze_lts lts measures)
       (Array.to_list ltss))

(* --- Quotient-deduplicated family solves ----------------------------- *)

type family_solve_stats = {
  members : int;
  distinct_quotients : int;
  solves_shared : int;
}

(* Dedup key of a CTMC's numeric solve structure: state count, initial
   distribution, and the per-state ordered (target, rate) rows. Label ids
   are deliberately excluded — {!Ctmc.steady_state} never reads them, so
   members differing only in labels share one solve. Rates compare by
   their exact 64-bit patterns, so equal keys mean the solver runs on
   identical numbers; the hash (FNV-1a) folds every word of those
   arrays. *)
module Solve_key = Hashtbl.Make (struct
  type t = Ctmc.t

  let same x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)

  (* For the hash only: the conversion drops the sign bit. *)
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
    let h = ref 0x811c9dc5 in
    let mix x = h := (!h lxor x) * 0x01000193 land max_int in
    mix c.n;
    Array.iter mix c.init_state;
    Array.iter (fun p -> mix (bits p)) c.init_prob;
    Array.iter mix c.row;
    Array.iter mix c.dst;
    Array.iter (fun r -> mix (bits r)) c.rate;
    !h
end)

let analyze_ltss_dedup ?jobs ltss measures =
  let members = Array.length ltss in
  if members = 0 then invalid_arg "Markov.analyze_ltss_dedup: empty family";
  (* Per member (dealt to the pool): lump by ordinary lumpability, build
     the quotient CTMC (its own dedup key), and compile the measures into
     per-state reward vectors on the member's own CTMC (which carries its
     action names). *)
  let prepped =
    Array.of_list
      (Dpma_util.Pool.parallel_map ?jobs
         (fun lts ->
           let partition = Dpma_lts.Bisim.markovian_partition ~jobs:1 lts in
           let lumped = Lts.quotient_by_representative lts partition in
           let ctmc = Ctmc.of_lts lumped in
           (lts.Lts.num_states, ctmc, Measure.compile_ctmc ctmc measures))
         (Array.to_list ltss))
  in
  (* Group members by key; representatives in first-appearance order so
     the rep set (and thus every solve input) is deterministic. *)
  let rep_of_key = Solve_key.create 64 in
  let rep_members = ref [] and nreps = ref 0 in
  let rep_idx =
    Array.mapi
      (fun i (_, ctmc, _) ->
        match Solve_key.find_opt rep_of_key ctmc with
        | Some r -> r
        | None ->
            let r = !nreps in
            incr nreps;
            Solve_key.add rep_of_key ctmc r;
            rep_members := i :: !rep_members;
            r)
      prepped
  in
  let rep_members = Array.of_list (List.rev !rep_members) in
  (* One steady-state solve per distinct quotient. *)
  let pis =
    Array.of_list
      (Dpma_util.Pool.parallel_map ?jobs
         (fun mi ->
           let _, ctmc, _ = prepped.(mi) in
           Ctmc.steady_state ctmc)
         (Array.to_list rep_members))
  in
  (* Fan the shared solutions back out through each member's compiled
     reward vectors. *)
  let t0 = Dpma_obs.Clock.now_s () in
  let results =
    Array.mapi
      (fun i (states, ctmc, compiled) ->
        let pi = pis.(rep_idx.(i)) in
        let vals = Measure.eval_compiled compiled pi in
        let values =
          List.mapi (fun j m -> (m.Measure.name, vals.(j))) measures
        in
        { states; tangible = ctmc.Ctmc.n; values })
      prepped
  in
  if measures <> [] then
    Dpma_obs.Metrics.observe Dpma_obs.Instruments.ctmc_reward_seconds
      (Dpma_obs.Clock.now_s () -. t0);
  let stats =
    {
      members;
      distinct_quotients = !nreps;
      solves_shared = members - !nreps;
    }
  in
  let module I = Dpma_obs.Instruments in
  Dpma_obs.Metrics.set I.family_distinct_quotients
    (float_of_int stats.distinct_quotients);
  Dpma_obs.Metrics.set I.family_solves_shared
    (float_of_int stats.solves_shared);
  (results, stats)

let without_dpm lts ~high =
  Lts.restrict lts ~remove:(fun a -> List.exists (String.equal a) high)

let compare_dpm ?max_states spec ~high measures =
  let lts = Lts.of_spec ?max_states spec in
  let with_dpm = analyze_lts lts measures in
  let no_dpm = analyze_lts (without_dpm lts ~high) measures in
  (with_dpm, no_dpm)

let value analysis name = List.assoc name analysis.values
