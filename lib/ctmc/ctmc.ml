module Lts = Dpma_lts.Lts
module Rate = Dpma_pa.Rate
module Linalg = Dpma_util.Linalg
module Sparse = Dpma_util.Sparse
module Scc = Dpma_util.Scc
module Obs = Dpma_obs

type t = {
  n : int;
  initial : (int * float) list;
  transitions : (int * float * string) list array;
  immediate_rates : (string * float) list array;
  enabled_actions : string list array;
}

exception Build_error of string

let dense_threshold = 1500

let label_name = Lts.label_name

(* Immediate alternatives of a vanishing state: maximal priority wins, then
   weights give a probabilistic choice. *)
let immediate_branches (lts : Lts.t) s =
  let imms = ref [] in
  for i = lts.row.(s + 1) - 1 downto lts.row.(s) do
    if lts.rate_kind.(i) = 2 then
      imms :=
        (lts.rate_prio.(i), lts.rate_val.(i), label_name lts.lab.(i),
         lts.tgt.(i))
        :: !imms
  done;
  let imms = !imms in
  match imms with
  | [] -> None
  | _ ->
      let max_prio =
        List.fold_left (fun m (p, _, _, _) -> max m p) min_int imms
      in
      let top = List.filter (fun (p, _, _, _) -> p = max_prio) imms in
      let total = List.fold_left (fun acc (_, w, _, _) -> acc +. w) 0.0 top in
      Some (List.map (fun (_, w, a, u) -> (u, w /. total, a)) top)

(* Merge association lists of weighted action counts. *)
let merge_counts lists =
  let table = Hashtbl.create 8 in
  List.iter
    (List.iter (fun (a, c) ->
         let cur = Option.value ~default:0.0 (Hashtbl.find_opt table a) in
         Hashtbl.replace table a (cur +. c)))
    lists;
  Hashtbl.fold (fun a c acc -> (a, c) :: acc) table []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let of_lts (lts : Lts.t) =
  Obs.Trace.with_span "ctmc.build"
    ~attrs:[ ("lts_states", Obs.Trace.Int lts.num_states) ] (fun () ->
  let n0 = lts.num_states in
  (* Classify states and validate rates. *)
  let vanishing = Array.make n0 false in
  for s = 0 to n0 - 1 do
    for i = lts.row.(s) to lts.row.(s + 1) - 1 do
      match lts.rate_kind.(i) with
      | 0 ->
          raise
            (Build_error
               (Printf.sprintf
                  "state %d has an unrated transition on %s (functional \
                   model fed to the CTMC builder?)"
                  s
                  (label_name lts.lab.(i))))
      | 3 ->
          raise
            (Build_error
               (Printf.sprintf
                  "unsynchronized passive action %s in state %d: every \
                   passive action must be attached to an active partner"
                  (label_name lts.lab.(i)) s))
      | 2 -> vanishing.(s) <- true
      | _ -> ()
    done
  done;
  (* Resolve a vanishing state to its distribution over tangible states,
     together with the expected number of firings of each immediate action
     along the way (for impulse rewards on immediate actions). Memoized
     DFS; a cycle among vanishing states is a time trap. *)
  let resolved : (int, (int * float) list * (string * float) list) Hashtbl.t =
    Hashtbl.create 64
  in
  let in_progress = Hashtbl.create 16 in
  let rec resolve s =
    if not vanishing.(s) then ([ (s, 1.0) ], [])
    else
      match Hashtbl.find_opt resolved s with
      | Some d -> d
      | None ->
          if Hashtbl.mem in_progress s then
            raise
              (Build_error
                 (Printf.sprintf
                    "cycle of immediate transitions through state %d (time \
                     trap)"
                    s));
          Hashtbl.add in_progress s ();
          let branches = Option.get (immediate_branches lts s) in
          let parts =
            List.map
              (fun (u, p, a) ->
                let dist_u, counts_u = resolve u in
                ( List.map (fun (v, q) -> (v, p *. q)) dist_u,
                  (a, p) :: List.map (fun (b, c) -> (b, p *. c)) counts_u ))
              branches
          in
          let dist = List.concat_map fst parts in
          (* Merge duplicate targets. *)
          let merged = Hashtbl.create 8 in
          List.iter
            (fun (v, p) ->
              let cur = Option.value ~default:0.0 (Hashtbl.find_opt merged v) in
              Hashtbl.replace merged v (cur +. p))
            dist;
          let dist =
            Hashtbl.fold (fun v p acc -> (v, p) :: acc) merged []
            |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
          in
          let counts = merge_counts (List.map snd parts) in
          Hashtbl.remove in_progress s;
          Hashtbl.add resolved s (dist, counts);
          (dist, counts)
  in
  (* Dense renumbering of tangible states. *)
  let new_id = Array.make n0 (-1) in
  let count = ref 0 in
  for s = 0 to n0 - 1 do
    if not vanishing.(s) then begin
      new_id.(s) <- !count;
      incr count
    end
  done;
  let n = !count in
  if n = 0 then raise (Build_error "no tangible state (all states vanishing)");
  let transitions = Array.make n [] in
  let immediate_rates = Array.make n [] in
  let enabled_actions = Array.make n [] in
  for s = 0 to n0 - 1 do
    if not vanishing.(s) then begin
      let id = new_id.(s) in
      enabled_actions.(id) <-
        (let names = ref [] in
         for i = lts.row.(s + 1) - 1 downto lts.row.(s) do
           if lts.lab.(i) <> Lts.tau then
             names := label_name lts.lab.(i) :: !names
         done;
         List.sort_uniq String.compare !names);
      let outgoing = ref [] in
      let imm_parts = ref [] in
      for i = lts.row.(s) to lts.row.(s + 1) - 1 do
        if lts.rate_kind.(i) = 1 then begin
          let lambda = lts.rate_val.(i) in
          let a = label_name lts.lab.(i) in
          let dist, counts = resolve lts.tgt.(i) in
          outgoing :=
            List.map (fun (v, p) -> (new_id.(v), lambda *. p, a)) dist
            @ !outgoing;
          imm_parts :=
            List.map (fun (b, c) -> (b, lambda *. c)) counts :: !imm_parts
        end
      done;
      transitions.(id) <- !outgoing;
      immediate_rates.(id) <- merge_counts !imm_parts
    end
  done;
  let initial =
    fst (resolve lts.init) |> List.map (fun (v, p) -> (new_id.(v), p))
  in
  let module I = Obs.Instruments in
  Obs.Metrics.incr I.ctmc_builds;
  Obs.Metrics.add I.ctmc_states n;
  Obs.Metrics.add I.ctmc_transitions
    (Array.fold_left (fun acc l -> acc + List.length l) 0 transitions);
  { n; initial; transitions; immediate_rates; enabled_actions })

let total_exit_rate c s =
  List.fold_left
    (fun acc (t, r, _) -> if t = s then acc else acc +. r)
    0.0 c.transitions.(s)

let uniformization_rate c =
  let m = ref 0.0 in
  for s = 0 to c.n - 1 do
    m := Float.max !m (total_exit_rate c s)
  done;
  1.1 *. Float.max !m 1e-9

let succ_fun c s =
  c.transitions.(s)
  |> List.filter_map (fun (t, r, _) -> if r > 0.0 && t <> s then Some t else None)
  |> List.sort_uniq Int.compare

let bsccs c = Scc.bottom_components ~succ:(fun s -> succ_fun c s) c.n

(* Steady-state residual of a local solution: max_j |sum_i pi_i q_ij|
   over the BSCC, recomputed from the transition lists so it measures the
   solution itself rather than the solver's own stopping test. *)
let bscc_residual c states_arr local_id pi =
  let k = Array.length pi in
  let balance = Array.make k 0.0 in
  Array.iteri
    (fun i s ->
      List.iter
        (fun (t, r, _) ->
          if t <> s then
            match Hashtbl.find_opt local_id t with
            | Some j ->
                balance.(j) <- balance.(j) +. (pi.(i) *. r);
                balance.(i) <- balance.(i) -. (pi.(i) *. r)
            | None -> ())
        c.transitions.(s))
    states_arr;
  Array.fold_left (fun acc b -> Float.max acc (abs_float b)) 0.0 balance

let record_solve ~iterations ~residual =
  let module I = Obs.Instruments in
  Obs.Metrics.add I.ctmc_solve_iterations iterations;
  let cur = Obs.Metrics.value I.ctmc_solve_residual in
  Obs.Metrics.set I.ctmc_solve_residual
    (if Float.is_nan cur then residual else Float.max cur residual)

(* Stationary distribution inside one BSCC given as a state list. *)
let solve_bscc c states =
  let k = List.length states in
  let local_id = Hashtbl.create k in
  List.iteri (fun i s -> Hashtbl.add local_id s i) states;
  let states_arr = Array.of_list states in
  if k = 1 then begin
    record_solve ~iterations:1 ~residual:0.0;
    [ (states_arr.(0), 1.0) ]
  end
  else if k <= dense_threshold then begin
    (* Solve pi Q = 0, sum pi = 1: take Q^T, overwrite the last row with the
       normalization equation. *)
    let m = Array.make_matrix k k 0.0 in
    Array.iteri
      (fun i s ->
        List.iter
          (fun (t, r, _) ->
            if t <> s then
              match Hashtbl.find_opt local_id t with
              | Some j ->
                  m.(j).(i) <- m.(j).(i) +. r;
                  m.(i).(i) <- m.(i).(i) -. r
              | None ->
                  raise
                    (Build_error
                       "internal error: BSCC state leaks outside its component"))
          c.transitions.(s))
      states_arr;
    for j = 0 to k - 1 do
      m.(k - 1).(j) <- 1.0
    done;
    let rhs = Array.make k 0.0 in
    rhs.(k - 1) <- 1.0;
    let pi = Linalg.solve m rhs in
    (* A direct dense solve counts one "iteration" per elimination pivot. *)
    record_solve ~iterations:k
      ~residual:(bscc_residual c states_arr local_id pi);
    List.mapi (fun i s -> (s, pi.(i))) states
  end
  else begin
    let q = Sparse.create k in
    Array.iteri
      (fun i s ->
        List.iter
          (fun (t, r, _) ->
            if t <> s then
              match Hashtbl.find_opt local_id t with
              | Some j ->
                  Sparse.add_entry q i j r;
                  Sparse.add_entry q i i (-.r)
              | None -> ())
          c.transitions.(s))
      states_arr;
    let stats = ref { Sparse.iterations = 0; last_delta = infinity } in
    let pi = Sparse.gauss_seidel_stationary ~stats q in
    record_solve ~iterations:!stats.Sparse.iterations
      ~residual:(bscc_residual c states_arr local_id pi);
    List.mapi (fun i s -> (s, pi.(i))) states
  end

(* Probability of eventually being absorbed into each BSCC, starting from
   the initial distribution: fixed-point iteration on the embedded jump
   chain restricted to transient states. *)
let absorption_weights c bscc_list =
  let bscc_of = Array.make c.n (-1) in
  List.iteri (fun bi states -> List.iter (fun s -> bscc_of.(s) <- bi) states) bscc_list;
  let nb = List.length bscc_list in
  let transient = Array.make c.n false in
  for s = 0 to c.n - 1 do
    transient.(s) <- bscc_of.(s) < 0
  done;
  (* h.(s).(b): probability of reaching BSCC b from s. *)
  let h = Array.make_matrix c.n nb 0.0 in
  for s = 0 to c.n - 1 do
    if bscc_of.(s) >= 0 then h.(s).(bscc_of.(s)) <- 1.0
  done;
  let any_transient = Array.exists (fun x -> x) transient in
  if any_transient then begin
    let continue_ = ref true in
    let sweeps = ref 0 in
    while !continue_ && !sweeps < 1_000_000 do
      let delta = ref 0.0 in
      for s = 0 to c.n - 1 do
        if transient.(s) then begin
          let exit = total_exit_rate c s in
          if exit > 0.0 then
            for b = 0 to nb - 1 do
              let v = ref 0.0 in
              List.iter
                (fun (t, r, _) -> if t <> s then v := !v +. (r /. exit *. h.(t).(b)))
                c.transitions.(s);
              delta := Float.max !delta (abs_float (!v -. h.(s).(b)));
              h.(s).(b) <- !v
            done
        end
      done;
      if !delta < 1e-14 then continue_ := false;
      incr sweeps
    done;
    Obs.Metrics.add Obs.Instruments.ctmc_absorption_sweeps !sweeps
  end;
  let weights = Array.make nb 0.0 in
  List.iter
    (fun (s, p) ->
      for b = 0 to nb - 1 do
        weights.(b) <- weights.(b) +. (p *. h.(s).(b))
      done)
    c.initial;
  weights

let steady_state c =
  Obs.Trace.with_span "ctmc.solve"
    ~attrs:[ ("states", Obs.Trace.Int c.n) ] (fun () ->
  Obs.Metrics.incr Obs.Instruments.ctmc_solves;
  let bscc_list = bsccs c in
  let weights =
    match bscc_list with
    | [ _ ] -> [| 1.0 |]
    | _ -> absorption_weights c bscc_list
  in
  let pi = Array.make c.n 0.0 in
  List.iteri
    (fun bi states ->
      if weights.(bi) > 0.0 then
        List.iter
          (fun (s, p) -> pi.(s) <- pi.(s) +. (weights.(bi) *. p))
          (solve_bscc c states))
    bscc_list;
  pi)

let transient c time =
  assert (time >= 0.0);
  let lambda = uniformization_rate c in
  (* Uniformized DTMC as a sparse matrix. *)
  let p = Sparse.create c.n in
  for s = 0 to c.n - 1 do
    let exit = ref 0.0 in
    List.iter
      (fun (t, r, _) ->
        if t <> s then begin
          Sparse.add_entry p s t (r /. lambda);
          exit := !exit +. r
        end)
      c.transitions.(s);
    Sparse.add_entry p s s (1.0 -. (!exit /. lambda))
  done;
  let x = Array.make c.n 0.0 in
  List.iter (fun (s, pr) -> x.(s) <- x.(s) +. pr) c.initial;
  let lt = lambda *. time in
  (* Adaptive truncation of the Poisson series: stop when the accumulated
     mass is within 1e-12 of 1. *)
  let result = Array.make c.n 0.0 in
  let poisson = ref (exp (-.lt)) in
  let accumulated = ref 0.0 in
  let vec = ref x in
  let k = ref 0 in
  (if !poisson = 0.0 then begin
     (* lt too large for direct series start; fall back to stepping the
        series in log space via scaling. *)
     let log_p = ref (-.lt) in
     while !accumulated < 1.0 -. 1e-12 && !k < 100 + int_of_float (10.0 *. lt) do
       let pk = exp !log_p in
       accumulated := !accumulated +. pk;
       Array.iteri (fun i v -> result.(i) <- result.(i) +. (pk *. v)) !vec;
       incr k;
       log_p := !log_p +. log (lt /. float_of_int !k);
       vec := Sparse.vec_mat !vec p
     done
   end
   else
     while !accumulated < 1.0 -. 1e-12 && !k < 100 + int_of_float (10.0 *. lt) do
       accumulated := !accumulated +. !poisson;
       Array.iteri (fun i v -> result.(i) <- result.(i) +. (!poisson *. v)) !vec;
       incr k;
       poisson := !poisson *. lt /. float_of_int !k;
       vec := Sparse.vec_mat !vec p
     done);
  result

let state_reward c pi r =
  let acc = ref 0.0 in
  for s = 0 to c.n - 1 do
    if pi.(s) > 0.0 then acc := !acc +. (pi.(s) *. r s)
  done;
  !acc

let impulse_reward c pi r =
  let acc = ref 0.0 in
  for s = 0 to c.n - 1 do
    if pi.(s) > 0.0 then begin
      List.iter
        (fun (_, rate, a) ->
          let rw = r a in
          if rw <> 0.0 then acc := !acc +. (pi.(s) *. rate *. rw))
        c.transitions.(s);
      (* Immediate firings reached through this state's timed transitions. *)
      List.iter
        (fun (a, rate) ->
          let rw = r a in
          if rw <> 0.0 then acc := !acc +. (pi.(s) *. rate *. rw))
        c.immediate_rates.(s)
    end
  done;
  !acc

let throughput c pi action =
  impulse_reward c pi (fun a -> if String.equal a action then 1.0 else 0.0)

let probability_enabled c pi action =
  state_reward c pi (fun s ->
      if List.exists (String.equal action) c.enabled_actions.(s) then 1.0
      else 0.0)

let pp_stats ppf c =
  let m = Array.fold_left (fun acc l -> acc + List.length l) 0 c.transitions in
  Format.fprintf ppf "%d tangible states, %d rated transitions" c.n m

let transient_reward c time r =
  let p = transient c time in
  let acc = ref 0.0 in
  for s = 0 to c.n - 1 do
    if p.(s) > 0.0 then acc := !acc +. (p.(s) *. r s)
  done;
  !acc

(* States that can reach the target through the transition graph. *)
let can_reach c ~target =
  let reaches = Array.make c.n false in
  for s = 0 to c.n - 1 do
    if target s then reaches.(s) <- true
  done;
  (* Reverse reachability by fixed point (the chains here are small; a
     reverse adjacency BFS would be asymptotically better). *)
  let changed = ref true in
  while !changed do
    changed := false;
    for s = 0 to c.n - 1 do
      if not reaches.(s) then
        if
          List.exists (fun (u, rate, _) -> rate > 0.0 && reaches.(u)) c.transitions.(s)
        then begin
          reaches.(s) <- true;
          changed := true
        end
    done
  done;
  reaches

let reachability_probability c ~target =
  let reaches = can_reach c ~target in
  (* p(s) = 1 on target; on others, p = sum of jump probabilities into
     reachable successors weighted by their p; absorbing non-target states
     give 0. Fixed-point iteration (substochastic, converges). *)
  let p = Array.make c.n 0.0 in
  for s = 0 to c.n - 1 do
    if target s then p.(s) <- 1.0
  done;
  let sweeps = ref 0 in
  let continue_ = ref true in
  while !continue_ && !sweeps < 1_000_000 do
    let delta = ref 0.0 in
    for s = 0 to c.n - 1 do
      if (not (target s)) && reaches.(s) then begin
        let exit = total_exit_rate c s in
        if exit > 0.0 then begin
          let v = ref 0.0 in
          List.iter
            (fun (u, rate, _) -> if u <> s then v := !v +. (rate /. exit *. p.(u)))
            c.transitions.(s);
          delta := Float.max !delta (abs_float (!v -. p.(s)));
          p.(s) <- !v
        end
      end
    done;
    if !delta < 1e-14 then continue_ := false;
    incr sweeps
  done;
  List.fold_left (fun acc (s, pr) -> acc +. (pr *. p.(s))) 0.0 c.initial

let mean_time_to c ~target =
  let inside =
    List.for_all (fun (s, pr) -> pr <= 0.0 || target s) c.initial
  in
  if inside then 0.0
  else begin
    let reaches = can_reach c ~target in
    let escape =
      List.exists (fun (s, pr) -> pr > 0.0 && not reaches.(s)) c.initial
    in
    (* Any reachable state that cannot reach the target makes the expected
       first-passage time infinite whenever it can be entered. *)
    let reachable = Array.make c.n false in
    List.iter (fun (s, pr) -> if pr > 0.0 then reachable.(s) <- true) c.initial;
    let queue = Queue.create () in
    Array.iteri (fun s b -> if b then Queue.add s queue) reachable;
    while not (Queue.is_empty queue) do
      let s = Queue.pop queue in
      if not (target s) then
        List.iter
          (fun (u, rate, _) ->
            if rate > 0.0 && not reachable.(u) then begin
              reachable.(u) <- true;
              Queue.add u queue
            end)
          c.transitions.(s)
    done;
    let dead_end = ref escape in
    for s = 0 to c.n - 1 do
      if reachable.(s) && not reaches.(s) then dead_end := true
    done;
    if !dead_end then infinity
    else begin
      (* Gauss-Seidel on h(s) = 1/E(s) + sum p(s,u) h(u), target h = 0. *)
      let h = Array.make c.n 0.0 in
      let sweeps = ref 0 in
      let continue_ = ref true in
      while !continue_ && !sweeps < 1_000_000 do
        let delta = ref 0.0 in
        for s = 0 to c.n - 1 do
          if reachable.(s) && not (target s) then begin
            let exit = total_exit_rate c s in
            if exit > 0.0 then begin
              let v = ref (1.0 /. exit) in
              List.iter
                (fun (u, rate, _) ->
                  if u <> s && not (target u) then
                    v := !v +. (rate /. exit *. h.(u)))
                c.transitions.(s);
              delta := Float.max !delta (abs_float (!v -. h.(s)));
              h.(s) <- !v
            end
          end
        done;
        if !delta < 1e-13 then continue_ := false;
        incr sweeps
      done;
      List.fold_left
        (fun acc (s, pr) -> acc +. (pr *. if target s then 0.0 else h.(s)))
        0.0 c.initial
    end
  end

let expected_accumulated_reward c ~reward ~until =
  let inside = List.for_all (fun (s, pr) -> pr <= 0.0 || until s) c.initial in
  if inside then 0.0
  else begin
    let reaches = can_reach c ~target:until in
    let reachable = Array.make c.n false in
    List.iter (fun (s, pr) -> if pr > 0.0 then reachable.(s) <- true) c.initial;
    let queue = Queue.create () in
    Array.iteri (fun s b -> if b then Queue.add s queue) reachable;
    while not (Queue.is_empty queue) do
      let s = Queue.pop queue in
      if not (until s) then
        List.iter
          (fun (u, rate, _) ->
            if rate > 0.0 && not reachable.(u) then begin
              reachable.(u) <- true;
              Queue.add u queue
            end)
          c.transitions.(s)
    done;
    let dead_end = ref false in
    for s = 0 to c.n - 1 do
      if reachable.(s) && not reaches.(s) then dead_end := true
    done;
    if !dead_end then infinity
    else begin
      let g = Array.make c.n 0.0 in
      let sweeps = ref 0 in
      let continue_ = ref true in
      while !continue_ && !sweeps < 1_000_000 do
        let delta = ref 0.0 in
        for s = 0 to c.n - 1 do
          if reachable.(s) && not (until s) then begin
            let exit = total_exit_rate c s in
            if exit > 0.0 then begin
              let v = ref (reward s /. exit) in
              List.iter
                (fun (u, rate, _) ->
                  if u <> s && not (until u) then
                    v := !v +. (rate /. exit *. g.(u)))
                c.transitions.(s);
              delta := Float.max !delta (abs_float (!v -. g.(s)));
              g.(s) <- !v
            end
          end
        done;
        if !delta < 1e-13 then continue_ := false;
        incr sweeps
      done;
      List.fold_left
        (fun acc (s, pr) -> acc +. (pr *. if until s then 0.0 else g.(s)))
        0.0 c.initial
    end
  end
