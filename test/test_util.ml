(* Tests for the foundations library: PRNG, statistics, dense/sparse
   linear algebra, strongly connected components. *)

module Prng = Dpma_util.Prng
module Stats = Dpma_util.Stats
module Linalg = Dpma_util.Linalg
module Sparse = Dpma_util.Sparse
module Scc = Dpma_util.Scc

let check_float = Alcotest.(check (float 1e-9))
let check_close tol = Alcotest.(check (float tol))

(* ------------------------------------------------------------------ *)
(* PRNG *)

let test_prng_determinism () =
  let a = Prng.create 7 and b = Prng.create 7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.bits64 a) (Prng.bits64 b)
  done

let test_prng_seed_sensitivity () =
  let a = Prng.create 1 and b = Prng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Prng.bits64 a = Prng.bits64 b then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 4)

let test_prng_float_range () =
  let g = Prng.create 11 in
  for _ = 1 to 10_000 do
    let x = Prng.float g in
    Alcotest.(check bool) "in [0,1)" true (x >= 0.0 && x < 1.0)
  done

let test_prng_float_mean () =
  let g = Prng.create 13 in
  let acc = ref 0.0 in
  let n = 100_000 in
  for _ = 1 to n do
    acc := !acc +. Prng.float g
  done;
  check_close 0.01 "uniform mean 0.5" 0.5 (!acc /. float_of_int n)

let test_prng_int_bounds () =
  let g = Prng.create 3 in
  for _ = 1 to 10_000 do
    let x = Prng.int g 7 in
    Alcotest.(check bool) "in [0,7)" true (x >= 0 && x < 7)
  done

let test_prng_split_independent () =
  let g = Prng.create 5 in
  let a = Prng.split g in
  let b = Prng.split g in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Prng.bits64 a = Prng.bits64 b then incr same
  done;
  Alcotest.(check bool) "split streams differ" true (!same < 4)

(* The stream is pinned: the first four splitmix64 outputs for seed 42
   (the standard splitmix64 sequence), those of one split, which is
   seeded with the parent's first output, and a run of weighted picks. A
   change of the state's representation or of the pick loop must not
   move a single bit. *)
let test_prng_pinned_stream () =
  let draws g = List.init 4 (fun _ -> Prng.bits64 g) in
  Alcotest.(check (list int64)) "create 42"
    [ -4767286540954276203L; 2949826092126892291L; 5139283748462763858L;
      6349198060258255764L ]
    (draws (Prng.create 42));
  let g = Prng.create 42 in
  let h = Prng.split g in
  Alcotest.(check (list int64)) "split of create 42"
    [ 6332618229526065668L; -816328817471504299L; 8971565426155258802L;
      1242533817266198696L ]
    (draws h);
  Alcotest.(check int64) "the parent resumes after the split"
    2949826092126892291L (Prng.bits64 g);
  let g = Prng.create 9 in
  Alcotest.(check (list int)) "choose_weighted picks"
    [ 3; 3; 2; 3; 2; 0; 2; 3 ]
    (List.init 8 (fun _ -> Prng.choose_weighted g [| 0.5; 0.0; 2.0; 1.25 |]))

let test_prng_copy () =
  let g = Prng.create 17 in
  ignore (Prng.bits64 g);
  let h = Prng.copy g in
  Alcotest.(check int64) "copy continues identically" (Prng.bits64 g)
    (Prng.bits64 h)

let test_choose_weighted () =
  let g = Prng.create 23 in
  let counts = [| 0; 0; 0 |] in
  let weights = [| 1.0; 2.0; 7.0 |] in
  let n = 50_000 in
  for _ = 1 to n do
    let i = Prng.choose_weighted g weights in
    counts.(i) <- counts.(i) + 1
  done;
  check_close 0.02 "weight 0.1" 0.1 (float_of_int counts.(0) /. float_of_int n);
  check_close 0.02 "weight 0.2" 0.2 (float_of_int counts.(1) /. float_of_int n);
  check_close 0.02 "weight 0.7" 0.7 (float_of_int counts.(2) /. float_of_int n)

(* ------------------------------------------------------------------ *)
(* Statistics *)

let test_welford_mean_variance () =
  let acc = Stats.accumulator () in
  let xs = [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ] in
  List.iter (Stats.add acc) xs;
  check_float "mean" 5.0 (Stats.mean acc);
  (* Unbiased sample variance of the list above is 32/7. *)
  check_close 1e-9 "variance" (32.0 /. 7.0) (Stats.variance acc);
  Alcotest.(check int) "count" 8 (Stats.count acc)

let test_empty_accumulator () =
  let acc = Stats.accumulator () in
  Alcotest.(check bool) "nan mean" true (Float.is_nan (Stats.mean acc));
  check_float "zero variance" 0.0 (Stats.variance acc)

let test_normal_quantile () =
  check_close 1e-4 "z(0.975)" 1.959964 (Stats.normal_quantile 0.975);
  check_close 1e-4 "z(0.95)" 1.644854 (Stats.normal_quantile 0.95);
  check_close 1e-4 "z(0.5)" 0.0 (Stats.normal_quantile 0.5);
  check_close 1e-4 "symmetry" (-.Stats.normal_quantile 0.975)
    (Stats.normal_quantile 0.025)

let test_student_t_quantile () =
  (* Reference values from standard t tables. *)
  check_close 0.02 "t(1, 0.975)" 12.706 (Stats.student_t_quantile ~df:1 0.975);
  check_close 0.01 "t(2, 0.975)" 4.303 (Stats.student_t_quantile ~df:2 0.975);
  check_close 0.02 "t(10, 0.975)" 2.228 (Stats.student_t_quantile ~df:10 0.975);
  check_close 0.02 "t(29, 0.95)" 1.699 (Stats.student_t_quantile ~df:29 0.95);
  check_close 0.02 "t(100, 0.975)" 1.984
    (Stats.student_t_quantile ~df:100 0.975)

let test_summary_interval () =
  let samples = List.init 30 (fun i -> 10.0 +. float_of_int (i mod 5)) in
  let acc = Stats.accumulator () in
  List.iter (Stats.add acc) samples;
  let s = Stats.summarize ~confidence:0.90 acc in
  Alcotest.(check int) "n" 30 s.Stats.n;
  check_close 1e-9 "mean" 12.0 s.Stats.mean;
  Alcotest.(check bool) "positive half width" true (s.Stats.half_width > 0.0);
  Alcotest.(check bool) "half width sane" true (s.Stats.half_width < 1.0)

let test_relative_error () =
  check_float "10% error" 0.1 (Stats.relative_error ~reference:10.0 11.0);
  check_float "zero reference guarded" 1e12
    (Stats.relative_error ~reference:0.0 1.0)

(* ------------------------------------------------------------------ *)
(* Linear algebra *)

let test_solve_known_system () =
  let a = [| [| 2.0; 1.0; -1.0 |]; [| -3.0; -1.0; 2.0 |]; [| -2.0; 1.0; 2.0 |] |] in
  let b = [| 8.0; -11.0; -3.0 |] in
  let x = Linalg.solve a b in
  check_close 1e-9 "x0" 2.0 x.(0);
  check_close 1e-9 "x1" 3.0 x.(1);
  check_close 1e-9 "x2" (-1.0) x.(2)

let test_solve_singular () =
  let a = [| [| 1.0; 2.0 |]; [| 2.0; 4.0 |] |] in
  Alcotest.check_raises "singular" (Failure "Linalg.solve: singular matrix")
    (fun () -> ignore (Linalg.solve a [| 1.0; 2.0 |]))

let test_solve_needs_pivoting () =
  (* Zero on the initial diagonal forces a row swap. *)
  let a = [| [| 0.0; 1.0 |]; [| 1.0; 0.0 |] |] in
  let x = Linalg.solve a [| 3.0; 4.0 |] in
  check_close 1e-12 "x0" 4.0 x.(0);
  check_close 1e-12 "x1" 3.0 x.(1)

let test_sparse_vs_dense () =
  (* [[0, 3, 0], [0, 0, 3], [4, 0, 0]] *)
  let m =
    Sparse.of_csr ~row:[| 0; 1; 2; 3 |] ~col:[| 1; 2; 0 |]
      ~value:[| 3.0; 3.0; 4.0 |]
  in
  Alcotest.(check (float 0.0)) "entry" 3.0 (Sparse.get m 0 1);
  Alcotest.(check (float 0.0)) "absent entry" 0.0 (Sparse.get m 0 0);
  let y = Sparse.vec_mat [| 1.0; 1.0; 1.0 |] m in
  Alcotest.(check (float 0.0)) "col 0" 4.0 y.(0);
  Alcotest.(check (float 0.0)) "col 1" 3.0 y.(1);
  Alcotest.(check (float 0.0)) "col 2" 3.0 y.(2);
  Alcotest.(check int) "nnz" 3 (Sparse.nnz m);
  let t = Sparse.transpose m in
  for i = 0 to 2 do
    for j = 0 to 2 do
      Alcotest.(check (float 0.0)) "transposed" (Sparse.get m j i)
        (Sparse.get t i j)
    done
  done;
  (* Column entries keep the source row order. *)
  let r = Sparse.transpose
      (Sparse.of_csr ~row:[| 0; 1; 3 |] ~col:[| 1; 0; 1 |]
         ~value:[| 1.0; 2.0; 3.0 |])
  in
  Alcotest.(check (array int)) "stable col" [| 1; 0; 1 |] r.Sparse.col;
  Alcotest.(check (array (float 0.0))) "stable value" [| 2.0; 1.0; 3.0 |]
    r.Sparse.value;
  Alcotest.check_raises "inconsistent arrays"
    (Invalid_argument "Sparse.of_csr: inconsistent CSR arrays") (fun () ->
      ignore (Sparse.of_csr ~row:[| 0; 2 |] ~col:[| 0 |] ~value:[| 1.0 |]))

let test_gauss_seidel_stationary () =
  (* Generator of a 3-state cycle with rates 1: uniform stationary. *)
  let q =
    Sparse.of_csr ~row:[| 0; 2; 4; 6 |] ~col:[| 1; 0; 2; 1; 0; 2 |]
      ~value:[| 1.0; -1.0; 1.0; -1.0; 1.0; -1.0 |]
  in
  let pi, conv = Sparse.gauss_seidel_stationary q in
  Array.iter (fun v -> check_close 1e-8 "uniform" (1.0 /. 3.0) v) pi;
  Alcotest.(check bool) "converged" true (conv.Sparse.residual < 1e-12)

(* A solver driven below the sweeps it needs raises a convergence trip
   with its phase and progress, and counts the event. *)
let test_not_converged () =
  (* A dense 3-state generator: Gauss–Seidel needs many sweeps. *)
  let q =
    Sparse.of_csr ~row:[| 0; 3; 6; 9 |] ~col:[| 1; 2; 0; 0; 2; 1; 0; 1; 2 |]
      ~value:[| 1.0; 2.0; -3.0; 3.0; 1.0; -4.0; 1.0; 5.0; -6.0 |]
  in
  let unconverged () =
    Dpma_obs.Metrics.count Dpma_obs.Instruments.ctmc_solve_unconverged
  in
  let before = unconverged () in
  (match Sparse.gauss_seidel_stationary ~max_iter:2 q with
  | _ -> Alcotest.fail "two sweeps cannot reach 1e-12"
  | exception
      Dpma_util.Guard.Resource_exceeded
        { resource = Convergence; phase; limit; actual; partial } ->
      Alcotest.(check string) "phase" "ctmc.solve" phase;
      Alcotest.(check bool) "iterations" true (partial = [ ("iterations", 2.0) ]);
      Alcotest.(check bool) "residual above tolerance" true (actual >= limit));
  Alcotest.(check int) "counted" (before + 1) (unconverged ());
  (* Under the default cap the same solve converges to pi Q = 0. *)
  let pi, conv = Sparse.gauss_seidel_stationary q in
  Alcotest.(check bool) "converged" true (conv.Sparse.residual < 1e-12);
  let balance j =
    let acc = ref 0.0 in
    Array.iteri (fun i p -> acc := !acc +. (p *. Sparse.get q i j)) pi;
    !acc
  in
  for j = 0 to 2 do
    check_close 1e-10 "balance" 0.0 (balance j)
  done

(* ------------------------------------------------------------------ *)
(* SCC *)

let graph edges _n i = List.filter_map (fun (a, b) -> if a = i then Some b else None) edges

(* The CSR of [n] vertices whose successors are [succ v], in list order. *)
let csr_of_graph succ n =
  let row = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    row.(v + 1) <- row.(v) + List.length (succ v)
  done;
  (row, Array.of_list (List.concat_map succ (List.init n Fun.id)))

(* Components as member lists, in component-number order. *)
let tarjan_lists succ n =
  let row, dst = csr_of_graph succ n in
  let c = Scc.tarjan_csr ~row ~dst n in
  List.init (Scc.count c) (fun ci ->
      Array.to_list
        (Array.sub c.Scc.members c.Scc.comp_row.(ci)
           (c.Scc.comp_row.(ci + 1) - c.Scc.comp_row.(ci))))

let test_tarjan_cycle () =
  let succ = graph [ (0, 1); (1, 2); (2, 0); (2, 3) ] 4 in
  let comps = tarjan_lists succ 4 in
  Alcotest.(check int) "two components" 2 (List.length comps);
  let sizes = List.map List.length comps |> List.sort compare in
  Alcotest.(check (list int)) "sizes" [ 1; 3 ] sizes

let test_tarjan_reverse_topological () =
  let succ = graph [ (0, 1); (1, 2) ] 3 in
  let comps = tarjan_lists succ 3 in
  (* Sinks first: state 2 before 1 before 0. *)
  Alcotest.(check (list (list int))) "ordering" [ [ 2 ]; [ 1 ]; [ 0 ] ] comps

let test_bottom_components () =
  let succ = graph [ (0, 1); (1, 0); (0, 2); (2, 3); (3, 2); (4, 4) ] 5 in
  let row, dst = csr_of_graph succ 5 in
  let comps = Scc.tarjan_csr ~row ~dst 5 in
  let bottoms =
    List.filter (Scc.is_bottom ~row ~dst comps) (List.init (Scc.count comps) Fun.id)
    |> List.map (fun ci ->
           List.filter (fun v -> comps.Scc.comp_of.(v) = ci) [ 0; 1; 2; 3; 4 ])
  in
  let normalized = List.map (List.sort compare) bottoms |> List.sort compare in
  Alcotest.(check (list (list int))) "bottoms" [ [ 2; 3 ]; [ 4 ] ] normalized

let prop_scc_partitions =
  QCheck.Test.make ~count:100 ~name:"tarjan components partition the vertices"
    QCheck.(list (pair (int_bound 9) (int_bound 9)))
    (fun edges ->
      let comps = tarjan_lists (graph edges 10) 10 in
      let all = List.concat comps |> List.sort compare in
      all = List.init 10 (fun i -> i))

(* Non-empty buckets of a 1024-bucket [Hashtbl.Make] table holding
   [keys]: [Hashtbl.Make] takes the bucket from the low bits of the
   hash. *)
let filled (type k) (module H : Hashtbl.HashedType with type t = k) keys =
  let module T = Hashtbl.Make (H) in
  let t = T.create 1024 in
  List.iter (fun k -> T.replace t k ()) keys;
  let st = T.stats t in
  Alcotest.(check int) "bucket count" 1024 st.Hashtbl.num_buckets;
  st.Hashtbl.num_buckets - st.Hashtbl.bucket_histogram.(0)

let int_array_key =
  (module struct
    type t = int array

    let equal = ( = )
    let hash = Dpma_util.Hash.ints
  end : Hashtbl.HashedType
    with type t = int array)

let test_hash_spreads_high_bits () =
  (* Packed (label, block) signature words: the label sits above bit 31,
     so only a mix that brings high bits down spreads them over the
     buckets. 1000 keys into 1024 buckets leave about 640 non-empty when
     the hash is uniform; a hash that drops the label bits fills one. *)
  let packed = List.init 1000 (fun l -> (l lsl 31) lor 0) in
  let ints =
    filled
      (module struct
        type t = int

        let equal = Int.equal
        let hash = Dpma_util.Hash.int
      end)
      packed
  in
  let arrays = filled int_array_key (List.map (fun k -> [| k |]) packed) in
  Alcotest.(check bool)
    (Printf.sprintf "int keys fill %d of 1024 buckets" ints)
    true (ints >= 512);
  Alcotest.(check bool)
    (Printf.sprintf "int array keys fill %d of 1024 buckets" arrays)
    true (arrays >= 512)

let test_hash_spreads_singleton_bitsets () =
  (* The one-configuration feature guards of a 1024-member family: 17
     words of 63 bits, one bit set. A fold without a final mix leaves the
     low bits of a word whose bit lies above the bucket mask unchanged,
     and such keys crowd into about a tenth of the buckets. *)
  let words = 17 in
  let singleton c =
    let a = Array.make words 0 in
    a.(c / 63) <- 1 lsl (c mod 63);
    a
  in
  let n = filled int_array_key (List.init 1024 singleton) in
  Alcotest.(check bool)
    (Printf.sprintf "singleton bitsets fill %d of 1024 buckets" n)
    true (n >= 512)

let qtests = [ prop_scc_partitions ]

let suite =
  [
    Alcotest.test_case "prng determinism" `Quick test_prng_determinism;
    Alcotest.test_case "prng seed sensitivity" `Quick test_prng_seed_sensitivity;
    Alcotest.test_case "prng float range" `Quick test_prng_float_range;
    Alcotest.test_case "prng float mean" `Quick test_prng_float_mean;
    Alcotest.test_case "prng int bounds" `Quick test_prng_int_bounds;
    Alcotest.test_case "prng split independence" `Quick test_prng_split_independent;
    Alcotest.test_case "prng copy" `Quick test_prng_copy;
    Alcotest.test_case "prng pinned stream" `Quick test_prng_pinned_stream;
    Alcotest.test_case "choose_weighted frequencies" `Quick test_choose_weighted;
    Alcotest.test_case "welford mean/variance" `Quick test_welford_mean_variance;
    Alcotest.test_case "empty accumulator" `Quick test_empty_accumulator;
    Alcotest.test_case "normal quantile" `Quick test_normal_quantile;
    Alcotest.test_case "student t quantile" `Quick test_student_t_quantile;
    Alcotest.test_case "summary interval" `Quick test_summary_interval;
    Alcotest.test_case "relative error" `Quick test_relative_error;
    Alcotest.test_case "solve known system" `Quick test_solve_known_system;
    Alcotest.test_case "solve singular" `Quick test_solve_singular;
    Alcotest.test_case "solve needs pivoting" `Quick test_solve_needs_pivoting;
    Alcotest.test_case "sparse vs dense" `Quick test_sparse_vs_dense;
    Alcotest.test_case "gauss-seidel stationary" `Quick test_gauss_seidel_stationary;
    Alcotest.test_case "solver cap trips convergence" `Quick test_not_converged;
    Alcotest.test_case "tarjan cycle" `Quick test_tarjan_cycle;
    Alcotest.test_case "tarjan reverse topological" `Quick test_tarjan_reverse_topological;
    Alcotest.test_case "bottom components" `Quick test_bottom_components;
    Alcotest.test_case "hash spreads packed labels" `Quick
      test_hash_spreads_high_bits;
    Alcotest.test_case "hash spreads singleton bitsets" `Quick
      test_hash_spreads_singleton_bitsets;
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) qtests

(* Floatfmt: exact decimal round-trip. *)

let prop_floatfmt_roundtrip =
  QCheck.Test.make ~count:500 ~name:"floatfmt repr round-trips exactly"
    QCheck.(float)
    (fun f ->
      if Float.is_nan f || Float.is_integer f && abs_float f > 1e15 then true
      else if Float.is_nan f then true
      else float_of_string (Dpma_util.Floatfmt.repr f) = f)

let test_floatfmt_known () =
  Alcotest.(check string) "third stays exact" (Dpma_util.Floatfmt.repr (1.0 /. 3.0))
    (Dpma_util.Floatfmt.repr (1.0 /. 3.0));
  Alcotest.(check (float 0.0)) "parse back"
    (1.0 /. 3.0)
    (float_of_string (Dpma_util.Floatfmt.repr (1.0 /. 3.0)));
  Alcotest.(check string) "simple stays short" "2.5" (Dpma_util.Floatfmt.repr 2.5)

let floatfmt_suite =
  Alcotest.test_case "floatfmt known values" `Quick test_floatfmt_known
  :: List.map (QCheck_alcotest.to_alcotest ~long:false) [ prop_floatfmt_roundtrip ]

let suite = suite @ floatfmt_suite
