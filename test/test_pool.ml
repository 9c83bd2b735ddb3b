(* Tests for the domain pool: order preservation, exception propagation,
   job-count independence of the parallel simulation replications. *)

module Pool = Dpma_util.Pool
module Rpc = Dpma_models.Rpc
module General = Dpma_core.General
module Lts = Dpma_lts.Lts
module Sim = Dpma_sim.Sim
module Stats = Dpma_util.Stats
module Elaborate = Dpma_adl.Elaborate

let test_parallel_map_order () =
  let xs = List.init 100 (fun i -> i + 1) in
  Alcotest.(check (list int))
    "squares in input order"
    (List.map (fun x -> x * x) xs)
    (Pool.parallel_map ~jobs:4 (fun x -> x * x) xs)

let test_parallel_map_jobs1_equivalent () =
  let xs = List.init 37 (fun i -> i) in
  let f x = (3 * x) - 7 in
  Alcotest.(check (list int))
    "jobs:1 = jobs:4" (Pool.parallel_map ~jobs:1 f xs)
    (Pool.parallel_map ~jobs:4 f xs)

let test_parallel_map_empty_and_singleton () =
  Alcotest.(check (list int)) "empty" [] (Pool.parallel_map ~jobs:4 succ []);
  Alcotest.(check (list int)) "singleton" [ 8 ] (Pool.parallel_map ~jobs:4 succ [ 7 ])

let test_parallel_map_exception () =
  Alcotest.check_raises "worker exception re-raised" (Failure "boom") (fun () ->
      ignore
        (Pool.parallel_map ~jobs:4
           (fun x -> if x = 23 then failwith "boom" else x)
           (List.init 64 (fun i -> i))))

let test_parallel_map_nested () =
  (* Inner calls from worker domains degrade to sequential maps instead of
     oversubscribing; results are unchanged. *)
  let rows =
    Pool.parallel_map ~jobs:2
      (fun i -> Pool.parallel_map ~jobs:2 (fun j -> (10 * i) + j) [ 1; 2; 3 ])
      [ 1; 2 ]
  in
  Alcotest.(check (list (list int)))
    "nested results" [ [ 11; 12; 13 ]; [ 21; 22; 23 ] ] rows

(* map_chunks_ordered: the chunked, per-worker-state primitive under the
   parallel LTS builder. *)

let test_map_chunks_order () =
  let xs = Array.init 200 (fun i -> i) in
  let out =
    Pool.map_chunks_ordered ~jobs:4 ~chunk:7
      ~init:(fun () -> ref 0)
      ~f:(fun w x ->
        incr w;
        x * x)
      xs
  in
  Alcotest.(check (array int))
    "squares in input order"
    (Array.map (fun x -> x * x) xs)
    out

let test_map_chunks_jobs_equivalent () =
  let xs = Array.init 131 (fun i -> (3 * i) - 5) in
  let f () x = (7 * x) mod 13 in
  Alcotest.(check (array int))
    "jobs:1 = jobs:4"
    (Pool.map_chunks_ordered ~jobs:1 ~init:(fun () -> ()) ~f xs)
    (Pool.map_chunks_ordered ~jobs:4 ~chunk:5 ~init:(fun () -> ()) ~f xs)

let test_map_chunks_init_finish () =
  let inits = Atomic.make 0 and finishes = Atomic.make 0 in
  let applied = Atomic.make 0 in
  let out =
    Pool.map_chunks_ordered ~jobs:4 ~chunk:3
      ~init:(fun () ->
        Atomic.incr inits;
        ())
      ~f:(fun () x ->
        Atomic.incr applied;
        x + 1)
      ~finish:(fun () -> Atomic.incr finishes)
      (Array.init 100 (fun i -> i))
  in
  Alcotest.(check int) "every element mapped once" 100 (Atomic.get applied);
  Alcotest.(check int)
    "one finish per init" (Atomic.get inits) (Atomic.get finishes);
  Alcotest.(check bool) "at most jobs workers" true (Atomic.get inits <= 4);
  Alcotest.(check int) "result length" 100 (Array.length out)

let test_map_chunks_empty () =
  let inits = ref 0 in
  let out =
    Pool.map_chunks_ordered ~jobs:4
      ~init:(fun () -> incr inits)
      ~f:(fun () x -> x)
      [||]
  in
  Alcotest.(check int) "empty result" 0 (Array.length out);
  Alcotest.(check int) "init not called on empty input" 0 !inits

let test_map_chunks_exception () =
  Alcotest.check_raises "worker exception re-raised" (Failure "chunk-boom")
    (fun () ->
      ignore
        (Pool.map_chunks_ordered ~jobs:4
           ~init:(fun () -> ())
           ~f:(fun () x -> if x >= 50 then failwith "chunk-boom" else x)
           (Array.init 64 (fun i -> i))))

let test_map_chunks_nested () =
  (* Calls from inside pool workers degrade to sequential, like
     parallel_map; results are unchanged. *)
  let rows =
    Pool.parallel_map ~jobs:2
      (fun i ->
        Pool.map_chunks_ordered ~jobs:2
          ~init:(fun () -> i * 10)
          ~f:(fun base j -> base + j)
          [| 1; 2; 3 |])
      [ 1; 2 ]
  in
  Alcotest.(check (list (list int)))
    "nested degraded results"
    [ [ 11; 12; 13 ]; [ 21; 22; 23 ] ]
    (List.map Array.to_list rows)

(* Must run before [test_default_jobs]: set_default_jobs installs a
   process-wide override that shadows the environment for the rest of
   the run, and there is deliberately no way to uninstall it. A
   malformed or non-positive DPMA_JOBS must fall back to the hardware
   count (with a one-line stderr warning), never crash the run. *)
let test_env_jobs () =
  let fallback = max 1 (Domain.recommended_domain_count () - 1) in
  let with_env v f =
    Unix.putenv "DPMA_JOBS" v;
    Fun.protect ~finally:(fun () -> Unix.putenv "DPMA_JOBS" "") f
  in
  with_env "3" (fun () ->
      Alcotest.(check int) "valid value respected" 3 (Pool.default_jobs ()));
  with_env " 5 " (fun () ->
      Alcotest.(check int) "whitespace trimmed" 5 (Pool.default_jobs ()));
  List.iter
    (fun bad ->
      with_env bad (fun () ->
          Alcotest.(check int)
            (Printf.sprintf "DPMA_JOBS=%S falls back to the hardware count" bad)
            fallback (Pool.default_jobs ())))
    [ "banana"; "0"; "-2"; "3.5"; "" ]

let test_default_jobs () =
  Alcotest.(check bool) "default >= 1" true (Pool.default_jobs () >= 1);
  Pool.set_default_jobs 3;
  Alcotest.(check int) "override respected" 3 (Pool.default_jobs ());
  Pool.set_default_jobs 0;
  Alcotest.(check int) "override clamped to 1" 1 (Pool.default_jobs ())

(* Replication statistics must not depend on the job count: per-run PRNG
   streams are derived in run order and the per-run values folded in run
   order, so jobs:1 and jobs:4 agree to the last bit (paper's general
   phase, rpc appliance). *)
let test_replicate_jobs_independent () =
  let el = Rpc.elaborate ~mode:Rpc.General ~monitors:true Rpc.default_params in
  let lts = Lts.of_spec el.Elaborate.spec in
  let timing = General.timing_of_list el.Elaborate.general_timings in
  let estimands =
    [
      (let idle = Lts.obs "S.monitor_idle_server" in
       Sim.Time_average
         (fun s -> if Lts.enables_label lts s idle then 1.0 else 0.0));
      Sim.Rate_of
        (fun a -> if String.equal a "C.process_result_packet" then 1.0 else 0.0);
    ]
  in
  let replicate jobs =
    Sim.replicate ~timing ~warmup:100.0 ~jobs ~lts ~duration:1_000.0 ~estimands
      ~runs:8 ~seed:11 ()
  in
  let sequential = replicate 1 and parallel = replicate 4 in
  Array.iteri
    (fun i (s : Stats.summary) ->
      let p = parallel.(i) in
      Alcotest.(check (float 0.0)) "mean bit-identical" s.Stats.mean p.Stats.mean;
      Alcotest.(check (float 0.0))
        "half-width bit-identical" s.Stats.half_width p.Stats.half_width;
      Alcotest.(check int) "run count" s.Stats.n p.Stats.n)
    sequential;
  Alcotest.(check bool)
    "estimate is meaningful" true
    (sequential.(0).Stats.mean > 0.0 && sequential.(0).Stats.mean < 1.0)

let suite =
  [
    Alcotest.test_case "parallel_map order" `Quick test_parallel_map_order;
    Alcotest.test_case "parallel_map jobs=1 equivalence" `Quick
      test_parallel_map_jobs1_equivalent;
    Alcotest.test_case "parallel_map empty/singleton" `Quick
      test_parallel_map_empty_and_singleton;
    Alcotest.test_case "parallel_map exception" `Quick test_parallel_map_exception;
    Alcotest.test_case "parallel_map nested" `Quick test_parallel_map_nested;
    Alcotest.test_case "map_chunks_ordered order" `Quick test_map_chunks_order;
    Alcotest.test_case "map_chunks_ordered jobs=1 equivalence" `Quick
      test_map_chunks_jobs_equivalent;
    Alcotest.test_case "map_chunks_ordered init/finish" `Quick
      test_map_chunks_init_finish;
    Alcotest.test_case "map_chunks_ordered empty" `Quick test_map_chunks_empty;
    Alcotest.test_case "map_chunks_ordered exception" `Quick
      test_map_chunks_exception;
    Alcotest.test_case "map_chunks_ordered nested" `Quick test_map_chunks_nested;
    Alcotest.test_case "DPMA_JOBS fallback" `Quick test_env_jobs;
    Alcotest.test_case "default_jobs" `Quick test_default_jobs;
    Alcotest.test_case "replicate jobs-independent" `Quick
      test_replicate_jobs_independent;
  ]
