(* Fixed-size domain pool over stdlib [Domain] — no domainslib dependency.

   Work is dealt in chunks through an [Atomic] cursor over the input array;
   each worker (the calling domain plus up to [jobs - 1] spawned ones)
   repeatedly claims the next chunk and writes results into slots indexed
   by input position, so the output order is independent of scheduling.
   Workers run until the cursor is exhausted or a failure has been
   recorded; the lowest-index exception is re-raised with its backtrace
   after every domain has joined. *)

module Obs = Dpma_obs

let clamp_jobs j = if j < 1 then 1 else j

(* How many domains the machine can actually run at once. Callers with a
   per-round fixed cost (the LTS builder, the refinement signature pass)
   use this in their default fallback policy: when it is 1, dealing work
   to the pool can only lose — the domains time-share one core and the
   spawn/join traffic is pure overhead — so their defaults stay
   sequential no matter what [-j] asks for. Explicit per-call overrides
   bypass the policy (the differential tests do, to exercise the parallel
   paths by oversubscription). *)
let hardware_parallelism () = clamp_jobs (Domain.recommended_domain_count ())

(* Shared chunk-granularity policy for level-synchronous consumers (the
   LTS builder's frontier rounds, the refinement signature pass): aim for
   ~8 chunks per worker so stragglers rebalance, but never chunks so
   small that the atomic cursor and per-chunk bookkeeping dominate the
   work being dealt. Scheduling only — results never depend on it. *)
let recommended_chunk ~n ~jobs =
  let jobs = clamp_jobs jobs in
  let target = n / (jobs * 8) in
  if target < 32 then min 32 (max 1 n) else min 4096 target

(* A malformed or non-positive DPMA_JOBS falls back to the hardware
   default, with one stderr warning per distinct value — not one per
   lookup: [default_jobs] runs before every parallel phase, and silent
   fallback would leave a broken export undiagnosed. *)
let warned : (string, unit) Hashtbl.t = Hashtbl.create 4

let warned_mu = Mutex.create ()

let env_jobs () =
  match Sys.getenv_opt "DPMA_JOBS" with
  | None -> None
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some j when j >= 1 -> Some j
      | Some _ | None ->
          Mutex.lock warned_mu;
          if not (Hashtbl.mem warned s) then begin
            Hashtbl.add warned s ();
            Printf.eprintf
              "dpma: ignoring DPMA_JOBS=%s (expected a positive integer); \
               falling back to the hardware count\n%!"
              s
          end;
          Mutex.unlock warned_mu;
          None)

(* Priority: set_default_jobs (-j flags) > DPMA_JOBS > hardware count. *)
let override : int option Atomic.t = Atomic.make None

let set_default_jobs j = Atomic.set override (Some (clamp_jobs j))

let default_jobs () =
  match Atomic.get override with
  | Some j -> j
  | None -> (
      match env_jobs () with
      | Some j -> j
      | None -> clamp_jobs (Domain.recommended_domain_count () - 1))

(* Sweeps nest (a parallel figure sweep whose points run parallel
   replications): workers mark their domain so inner parallel_map calls
   degrade to sequential maps instead of oversubscribing the machine. *)
let inside_pool : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

type failure = { index : int; exn : exn; backtrace : Printexc.raw_backtrace }

let record_failure failures f =
  let rec push () =
    let cur = Atomic.get failures in
    if not (Atomic.compare_and_set failures cur (f :: cur)) then push ()
  in
  push ()

(* The one worker loop: maps [f] over an array with a per-worker state
   threaded through every application ([init] once per worker, [finish]
   after all domains have joined, in worker-index order so merges are
   deterministic). The level-synchronous LTS builder uses this to give
   every worker a private SOS memo shard and merge the shards between
   BFS rounds; [parallel_map] below is its stateless list form. *)
let map_chunks_ordered ?jobs ?chunk ~init ~f ?(finish = fun _ -> ()) xs =
  let n = Array.length xs in
  if n = 0 then [||]
  else begin
    let jobs =
      clamp_jobs (match jobs with Some j -> j | None -> default_jobs ())
    in
    let jobs = min jobs n in
    if jobs = 1 || Domain.DLS.get inside_pool then begin
      let w = init () in
      let out = Array.make n (f w xs.(0)) in
      for i = 1 to n - 1 do
        out.(i) <- f w xs.(i)
      done;
      finish w;
      out
    end
    else begin
      let results = Array.make n None in
      let next = Atomic.make 0 in
      let failures : failure list Atomic.t = Atomic.make [] in
      let chunk =
        match chunk with
        | Some c -> clamp_jobs c
        | None -> clamp_jobs (n / (jobs * 4))
      in
      let busy_s = Atomic.make 0.0 in
      let add_busy dt =
        let rec go () =
          let cur = Atomic.get busy_s in
          if not (Atomic.compare_and_set busy_s cur (cur +. dt)) then go ()
        in
        go ()
      in
      let states = Array.make jobs None in
      let worker slot () =
        let was_inside = Domain.DLS.get inside_pool in
        Domain.DLS.set inside_pool true;
        let t0 = Obs.Clock.now_s () in
        let processed = ref 0 in
        (match init () with
        | w ->
            states.(slot) <- Some w;
            let continue_ = ref true in
            while !continue_ do
              let lo = Atomic.fetch_and_add next chunk in
              if lo >= n || Atomic.get failures <> [] then continue_ := false
              else
                for i = lo to min (lo + chunk) n - 1 do
                  incr processed;
                  match f w xs.(i) with
                  | y -> results.(i) <- Some y
                  | exception exn ->
                      let backtrace = Printexc.get_raw_backtrace () in
                      record_failure failures { index = i; exn; backtrace }
                done
            done
        | exception exn ->
            let backtrace = Printexc.get_raw_backtrace () in
            record_failure failures { index = 0; exn; backtrace });
        add_busy (Obs.Clock.now_s () -. t0);
        Obs.Metrics.observe Obs.Instruments.pool_tasks_per_worker
          (float_of_int !processed);
        Domain.DLS.set inside_pool was_inside
      in
      let t_start = Obs.Clock.now_s () in
      let spawned =
        Array.init (jobs - 1) (fun i -> Domain.spawn (worker (i + 1)))
      in
      worker 0 ();
      Array.iter Domain.join spawned;
      let elapsed = Obs.Clock.now_s () -. t_start in
      Obs.Metrics.incr Obs.Instruments.pool_parallel_maps;
      Obs.Metrics.add Obs.Instruments.pool_tasks n;
      Obs.Metrics.set Obs.Instruments.pool_jobs (float_of_int jobs);
      if elapsed > 0.0 then
        Obs.Metrics.set Obs.Instruments.pool_utilization
          (Atomic.get busy_s /. (float_of_int jobs *. elapsed));
      match Atomic.get failures with
      | [] ->
          Array.iter (function Some w -> finish w | None -> ()) states;
          Array.map Option.get results
      | first :: rest ->
          let worst =
            List.fold_left
              (fun best c -> if c.index < best.index then c else best)
              first rest
          in
          Printexc.raise_with_backtrace worst.exn worst.backtrace
    end
  end

let parallel_map ?jobs f xs =
  Array.to_list
    (map_chunks_ordered ?jobs ~init:ignore ~f:(fun () x -> f x)
       (Array.of_list xs))
