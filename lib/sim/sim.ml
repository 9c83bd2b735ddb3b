module Lts = Dpma_lts.Lts
module Rate = Dpma_pa.Rate
module Dist = Dpma_dist.Dist
module Prng = Dpma_util.Prng
module Pool = Dpma_util.Pool
module Stats = Dpma_util.Stats
module Guard = Dpma_util.Guard
module Obs = Dpma_obs

(* One record per completed run/batch set: totals feed the sim.* counters,
   the throughput gauge keeps the most recent runs-per-wall-second figure. *)
let record_runs ~runs ~events ~elapsed =
  let module I = Obs.Instruments in
  Obs.Metrics.add I.sim_runs runs;
  Obs.Metrics.add I.sim_events events;
  if elapsed > 0.0 && events > 0 then
    Obs.Metrics.set I.sim_events_per_sec (float_of_int events /. elapsed)

let record_ci (s : Stats.summary) =
  if s.mean <> 0.0 && Float.is_finite s.half_width then
    Obs.Metrics.observe Obs.Instruments.sim_ci_rel_half_width
      (abs_float (s.half_width /. s.mean))

type timing =
  | Timed of Dist.t
  | Immediate of { prio : int; weight : float }

exception Simulation_error of string

let timing_of_rate = function
  | Rate.Exp lambda -> Timed (Dist.Exponential (1.0 /. lambda))
  | Rate.Imm { prio; weight } -> Immediate { prio; weight }
  | Rate.Passive _ ->
      invalid_arg "Sim.timing_of_rate: passive action cannot be timed"

type assignment = string -> timing option

let exponential_assignment assignment action =
  match assignment action with
  | Some (Timed d) -> Some (Timed (Dist.Exponential (Dist.mean d)))
  | (Some (Immediate _) | None) as t -> t

type estimand =
  | Time_average of (int -> float)
  | Rate_of of (string -> float)
  | Ratio_of_counts of (string -> float) * (string -> float)

type run_result = { values : float array; events : int; horizon : float }

let label_name = Lts.label_name

let resolve assignment ~name rate =
  match assignment name with
  | Some t -> t
  | None -> (
      match rate with
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

let max_zero_steps = 10_000

(* Packed scheduling record of one state: either the state is absorbing,
   or the maximal-priority immediate race (parallel arrays, in edge
   order), or the timed race — the enabled label ids in race order, each
   label's distribution, and each label's candidate targets. *)
type step =
  | Unvisited
  | Deadlocked
  | Immediate_race of {
      targets : int array;
      labels : int array;
      weights : float array;
    }
  | Timed_race of {
      enabled : int array;
      dists : Dist.t array;
      candidates : int array array;
    }

(* Everything a trajectory reads and no trajectory writes, built once per
   [replicate]/[batch_means]/[first_passage] call and shared by its runs.
   [steps] fills lazily on first visit; a record is a pure function of
   (state, timing), so two domains building the same record concurrently
   store identical values, and a state whose timing resolution raises is
   never cached and raises again in every run that reaches it. The
   estimands are tabulated: state rewards per state, impulse rewards per
   label id, each paired with the index of the estimand it feeds. *)
type model = {
  lts : Lts.t;
  timing : assignment;
  rank : int array;
      (** label id -> position of its name in [String.compare] order *)
  steps : step array;
  count : int;  (** number of estimands *)
  state_rewards : (int * float array) array;
  rate_rewards : (int * float array) array;
  ratio_rewards : (int * float array * float array) array;
}

let model ?(timing = fun _ -> None) ~lts ~estimands () =
  let num_labels =
    Array.fold_left (fun m l -> max m (l + 1)) 0 lts.Lts.lab
  in
  let present = Array.make num_labels false in
  Array.iter (fun l -> present.(l) <- true) lts.Lts.lab;
  let ids = List.filter (fun l -> present.(l)) (List.init num_labels Fun.id) in
  let rank = Array.make num_labels 0 in
  List.iteri
    (fun i l -> rank.(l) <- i)
    (List.sort (fun a b -> String.compare (label_name a) (label_name b)) ids);
  let per_label f =
    let t = Array.make num_labels 0.0 in
    List.iter (fun l -> t.(l) <- f (label_name l)) ids;
    t
  in
  let indexed = List.mapi (fun i e -> (i, e)) estimands in
  let tabulate f = Array.of_list (List.filter_map f indexed) in
  {
    lts;
    timing;
    rank;
    steps = Array.make lts.Lts.num_states Unvisited;
    count = List.length estimands;
    state_rewards =
      tabulate (function
        | i, Time_average f -> Some (i, Array.init lts.Lts.num_states f)
        | _ -> None);
    rate_rewards =
      tabulate (function i, Rate_of f -> Some (i, per_label f) | _ -> None);
    ratio_rewards =
      tabulate (function
        | i, Ratio_of_counts (num, den) -> Some (i, per_label num, per_label den)
        | _ -> None);
  }

(* Build a state's record. The orders fixed here decide where each PRNG
   draw falls, so they must match the reference engine in
   test/sim_oracle.ml bit for bit: immediates race at maximal priority in
   edge order; timed edges are grouped in a name-keyed [Hashtbl] whose
   fold order is the race order (and the clock-sampling order), each group
   listing its edges newest first, its distribution taken from the head. *)
let build_step m s =
  let lts = m.lts in
  let lo = lts.Lts.row.(s) and hi = lts.Lts.row.(s + 1) in
  if lo = hi then Deadlocked
  else begin
    let resolved =
      List.init (hi - lo) (fun k ->
          let e = lo + k in
          let l = lts.Lts.lab.(e) in
          (e, resolve m.timing ~name:(label_name l) (Lts.rate_of lts e)))
    in
    let immediates =
      List.filter_map
        (fun (e, t) ->
          match t with
          | Immediate { prio; weight } -> Some (e, prio, weight)
          | Timed _ -> None)
        resolved
    in
    match immediates with
    | _ :: _ ->
        let max_prio =
          List.fold_left (fun m (_, p, _) -> max m p) min_int immediates
        in
        let top =
          Array.of_list (List.filter (fun (_, p, _) -> p = max_prio) immediates)
        in
        Immediate_race
          {
            targets = Array.map (fun (e, _, _) -> lts.Lts.tgt.(e)) top;
            labels = Array.map (fun (e, _, _) -> lts.Lts.lab.(e)) top;
            weights = Array.map (fun (_, _, w) -> w) top;
          }
    | [] ->
        let by_label : (string, (int * Dist.t) list) Hashtbl.t =
          Hashtbl.create 8
        in
        List.iter
          (fun (e, t) ->
            match t with
            | Timed d ->
                let name = label_name lts.Lts.lab.(e) in
                let cur =
                  Option.value ~default:[] (Hashtbl.find_opt by_label name)
                in
                Hashtbl.replace by_label name ((e, d) :: cur)
            | Immediate _ -> ())
          resolved;
        let groups = Array.of_list (Hashtbl.fold (fun _ g acc -> g :: acc) by_label []) in
        Timed_race
          {
            enabled = Array.map (fun g -> lts.Lts.lab.(fst (List.hd g))) groups;
            dists = Array.map (fun g -> snd (List.hd g)) groups;
            candidates =
              Array.map
                (fun g -> Array.of_list (List.map (fun (e, _) -> lts.Lts.tgt.(e)) g))
                groups;
          }
  end

let step_of m s =
  match m.steps.(s) with
  | Unvisited ->
      let r = build_step m s in
      m.steps.(s) <- r;
      r
  | r -> r

let poll_interval = 0xFFFF

(* Index of the segment containing time [t]: a monotone scan is fine, there
   are few segments. Boundary times belong to the following segment. The
   annotations keep the comparison a float one (the polymorphic compare
   boxes both operands), and inlining keeps [t] unboxed. *)
let[@inline] segment_of (boundaries : float array) (t : float) =
  let last = Array.length boundaries - 1 in
  let i = ref 0 in
  while !i < last && not (t < boundaries.(!i)) do
    incr i
  done;
  !i

(* One trajectory from time 0 to the last boundary; measurement is split
   at each boundary and one value-vector per segment is returned (segment
   [i] covers [boundaries.(i-1), boundaries.(i)), with an implicit 0
   start). [replicate] drops the warm-up segment; [batch_means] treats the
   segments as batches. [on_fire] sees every firing (time, label id,
   entered state); [poll] runs every [poll_interval + 1] events with the
   event count so far. The stepping loops are plain [for] loops over the
   packed arrays so that a step allocates next to nothing. *)
let simulate ?on_fire ?poll m ~boundaries g =
  let num_segments = Array.length boundaries in
  assert (num_segments > 0);
  Array.iteri
    (fun i b ->
      assert (b > 0.0);
      if i > 0 then assert (b > boundaries.(i - 1)))
    boundaries;
  let horizon = boundaries.(num_segments - 1) in
  let { count; state_rewards; rate_rewards; ratio_rewards; _ } = m in
  (* Per-segment accumulators, estimand [i] of segment [seg] at
     [seg * count + i]: [weighted] integrates state rewards over time,
     [hits]/[hits2] count impulse rewards. *)
  let weighted = Array.make (num_segments * count) 0.0 in
  let hits = Array.make (num_segments * count) 0.0 in
  let hits2 = Array.make (num_segments * count) 0.0 in
  (* Accrue state rewards of [s] over [lo, lo + dt), splitting at segment
     boundaries. Inlined, so its float arguments are never boxed. *)
  let[@inline] integrate s lo dt =
    let hi = Float.min (lo +. dt) horizon in
    let seg_start = ref lo in
    while !seg_start < hi do
      let seg = segment_of boundaries !seg_start in
      let seg_end = Float.min boundaries.(seg) hi in
      let span = seg_end -. !seg_start in
      if span > 0.0 then
        for j = 0 to Array.length state_rewards - 1 do
          let i, reward = state_rewards.(j) in
          let k = (seg * count) + i in
          weighted.(k) <- weighted.(k) +. (span *. reward.(s))
        done;
      if seg_end <= !seg_start then seg_start := hi else seg_start := seg_end
    done
  in
  let count_firing now l =
    if now < horizon then begin
      let base = segment_of boundaries now * count in
      for j = 0 to Array.length rate_rewards - 1 do
        let i, reward = rate_rewards.(j) in
        hits.(base + i) <- hits.(base + i) +. reward.(l)
      done;
      for j = 0 to Array.length ratio_rewards - 1 do
        let i, num, den = ratio_rewards.(j) in
        hits.(base + i) <- hits.(base + i) +. num.(l);
        hits2.(base + i) <- hits2.(base + i) +. den.(l)
      done
    end
  in
  (* Clocks by label id: [clock.(l)] holds a residual lifetime while
     [live] has byte [l] set. [stamp.(l)] is the last timed step that
     enabled [l]; the labels the previous timed step enabled are the only
     ones that can hold a stale clock. *)
  let num_labels = Array.length m.rank in
  let clock = Array.make num_labels 0.0 in
  let live = Bytes.make num_labels '\000' in
  let stamp = Array.make num_labels 0 in
  let prev_enabled = ref [||] in
  let timed_steps = ref 0 in
  let state = ref m.lts.Lts.init in
  let now = ref 0.0 in
  let events = ref 0 in
  let fire l target =
    count_firing !now l;
    incr events;
    state := target;
    (match on_fire with Some f -> f !now l target | None -> ());
    match poll with
    | Some p when !events land poll_interval = 0 -> p !events
    | _ -> ()
  in
  let zero_steps = ref 0 in
  let running = ref true in
  while !running && !now < horizon do
    match step_of m !state with
    | Unvisited -> assert false
    | Deadlocked ->
        (* Deadlock: the final state persists until the horizon. *)
        integrate !state !now (horizon -. !now);
        now := horizon;
        running := false
    | Immediate_race { targets; labels; weights } ->
        incr zero_steps;
        if !zero_steps > max_zero_steps then
          raise
            (Simulation_error
               "livelock: too many consecutive immediate transitions");
        let k = Prng.choose_weighted g weights in
        fire labels.(k) targets.(k)
    | Timed_race { enabled; dists; candidates } ->
        zero_steps := 0;
        let n = Array.length enabled in
        (* Enabling memory: drop the clocks of labels the previous timed
           state enabled and this one does not, then sample clocks for
           newly enabled labels in race order. *)
        incr timed_steps;
        let t = !timed_steps in
        for i = 0 to n - 1 do
          stamp.(enabled.(i)) <- t
        done;
        let prev = !prev_enabled in
        for i = 0 to Array.length prev - 1 do
          if stamp.(prev.(i)) <> t then Bytes.set live prev.(i) '\000'
        done;
        prev_enabled := enabled;
        for i = 0 to n - 1 do
          let l = enabled.(i) in
          if Bytes.get live l = '\000' then begin
            Dist.sample_into g dists.(i) clock l;
            Bytes.set live l '\001'
          end
        done;
        (* Find the minimal clock deterministically (ties by name). *)
        let w = ref 0 in
        for i = 1 to n - 1 do
          let l = enabled.(i) and b = enabled.(!w) in
          if clock.(l) < clock.(b)
             || (clock.(l) = clock.(b) && m.rank.(l) < m.rank.(b))
          then w := i
        done;
        let winner = enabled.(!w) in
        let dt = clock.(winner) in
        if !now +. dt >= horizon then begin
          integrate !state !now (horizon -. !now);
          now := horizon;
          running := false
        end
        else begin
          integrate !state !now dt;
          for i = 0 to n - 1 do
            let l = enabled.(i) in
            clock.(l) <- clock.(l) -. dt
          done;
          now := !now +. dt;
          Bytes.set live winner '\000';
          let targets = candidates.(!w) in
          let target =
            match Array.length targets with
            | 1 -> targets.(0)
            | k ->
                (* Same label to several targets: uniform choice. *)
                targets.(Prng.int g k)
          in
          fire winner target
        end
  done;
  let values =
    Array.init num_segments (fun seg ->
        let seg_start = if seg = 0 then 0.0 else boundaries.(seg - 1) in
        let span = boundaries.(seg) -. seg_start in
        let base = seg * count in
        let v = Array.make count 0.0 in
        Array.iter
          (fun (i, _) -> v.(i) <- weighted.(base + i) /. span)
          state_rewards;
        Array.iter (fun (i, _) -> v.(i) <- hits.(base + i) /. span) rate_rewards;
        Array.iter
          (fun (i, _, _) ->
            v.(i) <-
              (if hits2.(base + i) = 0.0 then 0.0
               else hits.(base + i) /. hits2.(base + i)))
          ratio_rewards;
        v)
  in
  (values, !events)

let on_fire_of_trace =
  Option.map (fun trace time l state ->
      trace ~time ~action:(label_name l) ~state)

let run_segments ?timing ?trace ~lts ~boundaries ~estimands g =
  simulate ?on_fire:(on_fire_of_trace trace)
    (model ?timing ~lts ~estimands ())
    ~boundaries g

let run_model ?on_fire ?poll m ~warmup ~duration g =
  assert (duration > 0.0 && warmup >= 0.0);
  let boundaries =
    if warmup > 0.0 then [| warmup; warmup +. duration |]
    else [| duration |]
  in
  let values, events = simulate ?on_fire ?poll m ~boundaries g in
  {
    values = values.(Array.length boundaries - 1);
    events;
    horizon = warmup +. duration;
  }

let run ?timing ?trace ?(warmup = 0.0) ~lts ~duration ~estimands g =
  run_model ?on_fire:(on_fire_of_trace trace)
    (model ?timing ~lts ~estimands ())
    ~warmup ~duration g

(* Resource-guard polling for one set of runs: before each run and every
   [poll_interval + 1] events, with the runs finished and the events
   simulated so far as partial progress. A trip is shared, so runs on
   other domains stop at their next poll with the same trip instead of
   finishing against a spent budget. *)
type progress = {
  phase : string;
  runs_done : int Atomic.t;
  events_done : int Atomic.t;
  tripped : Guard.trip option Atomic.t;
}

let progress phase =
  {
    phase;
    runs_done = Atomic.make 0;
    events_done = Atomic.make 0;
    tripped = Atomic.make None;
  }

let poll_guard p current_events =
  (match Atomic.get p.tripped with
  | Some trip -> raise (Guard.Resource_exceeded trip)
  | None -> ());
  let partial () =
    [
      ("runs", float_of_int (Atomic.get p.runs_done));
      ("events", float_of_int (Atomic.get p.events_done + current_events));
    ]
  in
  try Guard.poll ~partial ~phase:p.phase ()
  with Guard.Resource_exceeded trip as e ->
    Atomic.set p.tripped (Some trip);
    raise e

let run_done p events =
  Atomic.incr p.runs_done;
  ignore (Atomic.fetch_and_add p.events_done events)

(* Derive the replication PRNG streams up front, in run order: stream [i]
   is the [i]-th split of the master generator, exactly as the sequential
   loop produced, so the per-run randomness — and hence every statistic —
   is independent of how many domains execute the runs. *)
let replication_streams ~runs ~seed =
  let master = Prng.create seed in
  let gens = ref [] in
  for _ = 1 to runs do
    gens := Prng.split master :: !gens
  done;
  List.rev !gens

let replicate ?timing ?(warmup = 0.0) ?confidence ?jobs ~lts ~duration
    ~estimands ~runs ~seed () =
  assert (runs >= 1);
  Obs.Trace.with_span "sim.replicate"
    ~attrs:[ ("runs", Obs.Trace.Int runs) ] (fun () ->
  let t0 = Obs.Clock.now_s () in
  let m = model ?timing ~lts ~estimands () in
  let p = progress "sim.replicate" in
  let per_run =
    Pool.parallel_map ?jobs
      (fun g ->
        poll_guard p 0;
        let r = run_model ~poll:(poll_guard p) m ~warmup ~duration g in
        run_done p r.events;
        (r.values, r.events))
      (replication_streams ~runs ~seed)
  in
  record_runs ~runs
    ~events:(List.fold_left (fun acc (_, e) -> acc + e) 0 per_run)
    ~elapsed:(Obs.Clock.now_s () -. t0);
  let accs = List.map (fun _ -> Stats.accumulator ()) estimands in
  (* Accumulate in run order (Welford is order-sensitive in the last bits). *)
  List.iter
    (fun (values, _) -> List.iteri (fun i acc -> Stats.add acc values.(i)) accs)
    per_run;
  let summaries =
    Array.of_list (List.map (fun acc -> Stats.summarize ?confidence acc) accs)
  in
  Array.iter record_ci summaries;
  summaries)

let batch_means ?timing ?(warmup = 0.0) ?confidence ~lts ~batches
    ~batch_duration ~estimands ~seed () =
  assert (batches >= 2 && batch_duration > 0.0 && warmup >= 0.0);
  let boundaries =
    Array.init
      (batches + if warmup > 0.0 then 1 else 0)
      (fun i ->
        if warmup > 0.0 then
          if i = 0 then warmup
          else warmup +. (float_of_int i *. batch_duration)
        else float_of_int (i + 1) *. batch_duration)
  in
  let t0 = Obs.Clock.now_s () in
  let p = progress "sim.batch_means" in
  poll_guard p 0;
  let values, events =
    simulate ~poll:(poll_guard p)
      (model ?timing ~lts ~estimands ())
      ~boundaries (Prng.create seed)
  in
  record_runs ~runs:1 ~events ~elapsed:(Obs.Clock.now_s () -. t0);
  let first_batch = if warmup > 0.0 then 1 else 0 in
  let accs = List.map (fun _ -> Stats.accumulator ()) estimands in
  for seg = first_batch to Array.length boundaries - 1 do
    List.iteri (fun i acc -> Stats.add acc values.(seg).(i)) accs
  done;
  let summaries =
    Array.of_list (List.map (fun acc -> Stats.summarize ?confidence acc) accs)
  in
  Array.iter record_ci summaries;
  summaries

exception Hit of float

let first_passage ?timing ?confidence ?(horizon = 1e7) ?jobs ~lts ~target ~runs
    ~seed () =
  assert (runs >= 1);
  let t0 = Obs.Clock.now_s () in
  let m = model ?timing ~lts ~estimands:[] () in
  let p = progress "sim.replicate" in
  let outcomes =
    Pool.parallel_map ?jobs
      (fun g ->
        poll_guard p 0;
        if target lts.Lts.init then (0.0, false, 0)
        else begin
          (* Every firing passes through [on_fire], so counting its calls
             gives the run's events on the hit path too. *)
          let events = ref 0 in
          let on_fire time _ state =
            incr events;
            if target state then raise (Hit time)
          in
          let outcome =
            match
              simulate ~on_fire ~poll:(poll_guard p) m
                ~boundaries:[| horizon |] g
            with
            | _ -> (horizon, true, !events)
            | exception Hit t -> (t, false, !events)
          in
          run_done p !events;
          outcome
        end)
      (replication_streams ~runs ~seed)
  in
  record_runs ~runs
    ~events:(List.fold_left (fun acc (_, _, e) -> acc + e) 0 outcomes)
    ~elapsed:(Obs.Clock.now_s () -. t0);
  let acc = Stats.accumulator () in
  let censored = ref 0 in
  List.iter
    (fun (t, was_censored, _) ->
      Stats.add acc t;
      if was_censored then incr censored)
    outcomes;
  let summary = Stats.summarize ?confidence acc in
  record_ci summary;
  (summary, !censored)
