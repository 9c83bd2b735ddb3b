(* Test-only reference engine: the string-keyed GSMP stepper the packed
   simulator in lib/sim replaced, kept verbatim as a differential oracle.
   Clocks live in a Hashtbl keyed by action name, the race is resolved by
   name, and rewards are evaluated through the estimand closures on every
   firing. The packed engine must reproduce its segment values and event
   counts bit for bit (test_sim_oracle.ml). *)

module Lts = Dpma_lts.Lts
module Rate = Dpma_pa.Rate
module Dist = Dpma_dist.Dist
module Prng = Dpma_util.Prng
open Dpma_sim.Sim

let label_name = Lts.label_name

let resolve assignment (tr : Lts_fixture.transition) =
  let name = label_name tr.label in
  match assignment name with
  | Some t -> t
  | None -> (
      match tr.rate with
      | Some (Rate.Passive _) ->
          raise
            (Simulation_error
               (Printf.sprintf "passive action %s without timing override" name))
      | Some r -> timing_of_rate r
      | None ->
          raise
            (Simulation_error
               (Printf.sprintf
                  "action %s has neither a rate nor a timing override" name)))

(* Per-segment estimand accumulators: [weighted] integrates state rewards
   over time, [hits]/[hits2] count impulse rewards. *)
type accumulator = {
  mutable weighted : float;
  mutable hits : float;
  mutable hits2 : float;
}

let max_zero_steps = 10_000

(* Cached per-state scheduling structure: either the state is absorbing, or
   the maximal-priority immediate race, or the timed race grouped by action
   label (see [run_segments]). *)
type step_info =
  | Deadlocked
  | Immediate_race of { top : Lts_fixture.transition list; weights : float array }
  | Timed_race of {
      by_label : (string, (Lts_fixture.transition * Dist.t) list) Hashtbl.t;
      enabled_labels : string list;
    }

(* Core engine: simulate from time 0 to the last boundary; measurement is
   split at each boundary and one value-vector per segment is returned
   (segment [i] covers [boundaries.(i-1), boundaries.(i)), with an implicit
   0 start). [replicate] drops the warm-up segment; [batch_means] treats
   the segments as batches. *)
let run_segments ?(timing = fun _ -> None) ?(trace = fun ~time:_ ~action:_ ~state:_ -> ()) ~lts ~boundaries ~estimands g =
  let num_segments = Array.length boundaries in
  assert (num_segments > 0);
  Array.iteri
    (fun i b ->
      assert (b > 0.0);
      if i > 0 then assert (b > boundaries.(i - 1)))
    boundaries;
  let horizon = boundaries.(num_segments - 1) in
  let estimands = Array.of_list estimands in
  let accs =
    Array.init num_segments (fun _ ->
        Array.map (fun _ -> { weighted = 0.0; hits = 0.0; hits2 = 0.0 }) estimands)
  in
  let state = ref lts.Lts.init in
  let now = ref 0.0 in
  let events = ref 0 in
  let clocks : (string, float) Hashtbl.t = Hashtbl.create 16 in
  let segment_of t =
    (* Monotone scan is fine: few segments. Boundary times belong to the
       following segment. *)
    let rec go i = if i >= num_segments - 1 || t < boundaries.(i) then i else go (i + 1) in
    go 0
  in
  (* Accrue state rewards of [s] over [!now, !now + dt), splitting at
     segment boundaries. *)
  let integrate s dt =
    let lo = !now and hi = Float.min (!now +. dt) horizon in
    let seg_start = ref lo in
    while !seg_start < hi do
      let seg = segment_of !seg_start in
      let seg_end = Float.min boundaries.(seg) hi in
      let span = seg_end -. !seg_start in
      if span > 0.0 then
        Array.iteri
          (fun i e ->
            match e with
            | Time_average f ->
                accs.(seg).(i).weighted <- accs.(seg).(i).weighted +. (span *. f s)
            | Rate_of _ | Ratio_of_counts _ -> ())
          estimands;
      if seg_end <= !seg_start then seg_start := hi else seg_start := seg_end
    done
  in
  let count_firing action =
    if !now < horizon then begin
      let seg = segment_of !now in
      Array.iteri
        (fun i e ->
          match e with
          | Time_average _ -> ()
          | Rate_of f -> accs.(seg).(i).hits <- accs.(seg).(i).hits +. f action
          | Ratio_of_counts (num, den) ->
              accs.(seg).(i).hits <- accs.(seg).(i).hits +. num action;
              accs.(seg).(i).hits2 <- accs.(seg).(i).hits2 +. den action)
        estimands
    end
  in
  (* Per-state step structure, computed on first visit and reused on every
     later one: the unpacked transitions, their resolved timings, and the
     immediate/timed scheduling tables are all pure functions of the
     (state, timing assignment) pair. The construction replays exactly
     what the per-step code used to do, so scheduling order — and hence
     PRNG draw order — is unchanged. *)
  let cache = Array.make lts.Lts.num_states None in
  let step_info_of s =
    match cache.(s) with
    | Some info -> info
    | None ->
        let trans = Lts_fixture.transitions_of lts s in
        let info =
          match trans with
          | [] -> Deadlocked
          | _ -> (
              let resolved =
                List.map (fun tr -> (tr, resolve timing tr)) trans
              in
              let immediates =
                List.filter_map
                  (fun (tr, t) ->
                    match t with
                    | Immediate { prio; weight } -> Some (tr, prio, weight)
                    | Timed _ -> None)
                  resolved
              in
              match immediates with
              | _ :: _ ->
                  let max_prio =
                    List.fold_left
                      (fun m (_, p, _) -> max m p)
                      min_int immediates
                  in
                  let top =
                    List.filter (fun (_, p, _) -> p = max_prio) immediates
                    |> List.map (fun (tr, _, _) -> tr)
                  in
                  let weights =
                    Array.of_list
                      (List.filter_map
                         (fun (_, p, w) -> if p = max_prio then Some w else None)
                         immediates)
                  in
                  Immediate_race { top; weights }
              | [] ->
                  let timed =
                    List.filter_map
                      (fun (tr, t) ->
                        match t with
                        | Timed d -> Some (tr, d)
                        | Immediate _ -> None)
                      resolved
                  in
                  let by_label :
                      (string, (Lts_fixture.transition * Dist.t) list) Hashtbl.t =
                    Hashtbl.create 8
                  in
                  List.iter
                    (fun ((tr, _) as entry) ->
                      let name = label_name tr.Lts_fixture.label in
                      let cur =
                        Option.value ~default:[]
                          (Hashtbl.find_opt by_label name)
                      in
                      Hashtbl.replace by_label name (entry :: cur))
                    timed;
                  let enabled_labels =
                    Hashtbl.fold (fun k _ acc -> k :: acc) by_label []
                  in
                  Timed_race { by_label; enabled_labels })
        in
        cache.(s) <- Some info;
        info
  in
  let zero_steps = ref 0 in
  let running = ref true in
  while !running && !now < horizon do
    match step_info_of !state with
    | Deadlocked ->
        (* Deadlock: the final state persists until the horizon. *)
        integrate !state (horizon -. !now);
        now := horizon;
        running := false
    | Immediate_race { top; weights } ->
        incr zero_steps;
        if !zero_steps > max_zero_steps then
          raise
            (Simulation_error
               "livelock: too many consecutive immediate transitions");
        let tr = List.nth top (Prng.choose_weighted g weights) in
        let action = label_name tr.Lts_fixture.label in
        count_firing action;
        incr events;
        state := tr.Lts_fixture.target;
        trace ~time:!now ~action ~state:!state
    | Timed_race { by_label; enabled_labels } ->
            zero_steps := 0;
            (* Enabling memory: prune clocks of disabled labels, sample
               clocks for newly enabled ones. *)
            Hashtbl.iter
              (fun k _ ->
                if not (Hashtbl.mem by_label k) then Hashtbl.remove clocks k)
              (Hashtbl.copy clocks);
            List.iter
              (fun name ->
                if not (Hashtbl.mem clocks name) then begin
                  let _, d = List.hd (Hashtbl.find by_label name) in
                  Hashtbl.add clocks name (Dist.sample g d)
                end)
              enabled_labels;
            (* Find the minimal clock deterministically (ties by name). *)
            let winner =
              List.fold_left
                (fun best name ->
                  let rem = Hashtbl.find clocks name in
                  match best with
                  | None -> Some (name, rem)
                  | Some (bn, br) ->
                      if rem < br || (rem = br && String.compare name bn < 0)
                      then Some (name, rem)
                      else best)
                None enabled_labels
            in
            let name, dt =
              match winner with Some w -> w | None -> assert false
            in
            if !now +. dt >= horizon then begin
              integrate !state (horizon -. !now);
              now := horizon;
              running := false
            end
            else begin
              integrate !state dt;
              List.iter
                (fun lbl ->
                  let rem = Hashtbl.find clocks lbl in
                  Hashtbl.replace clocks lbl (rem -. dt))
                enabled_labels;
              now := !now +. dt;
              Hashtbl.remove clocks name;
              let candidates = Hashtbl.find by_label name in
              let tr, _ =
                match candidates with
                | [ single ] -> single
                | multiple ->
                    (* Same label to several targets: uniform choice. *)
                    List.nth multiple (Prng.int g (List.length multiple))
              in
              count_firing name;
              incr events;
              state := tr.Lts_fixture.target;
              trace ~time:!now ~action:name ~state:!state
            end
  done;
  let values =
    Array.init num_segments (fun seg ->
        let seg_start = if seg = 0 then 0.0 else boundaries.(seg - 1) in
        let span = boundaries.(seg) -. seg_start in
        Array.mapi
          (fun i e ->
            match e with
            | Time_average _ -> accs.(seg).(i).weighted /. span
            | Rate_of _ -> accs.(seg).(i).hits /. span
            | Ratio_of_counts _ ->
                if accs.(seg).(i).hits2 = 0.0 then 0.0
                else accs.(seg).(i).hits /. accs.(seg).(i).hits2)
          estimands)
  in
  (values, !events)
