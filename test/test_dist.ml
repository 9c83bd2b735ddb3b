(* Tests for the probability distribution library: moments, sampling,
   concrete syntax. *)

module Dist = Dpma_dist.Dist
module Prng = Dpma_util.Prng

let check_close tol = Alcotest.(check (float tol))

let sample_mean_var dist n seed =
  let g = Prng.create seed in
  let acc = Dpma_util.Stats.accumulator () in
  for _ = 1 to n do
    Dpma_util.Stats.add acc (Dist.sample g dist)
  done;
  (Dpma_util.Stats.mean acc, Dpma_util.Stats.variance acc)

let test_exponential_moments () =
  Alcotest.(check (float 0.0)) "mean" 3.0 (Dist.mean (Dist.Exponential 3.0));
  Alcotest.(check (float 0.0)) "variance" 9.0 (Dist.variance (Dist.Exponential 3.0));
  let m, v = sample_mean_var (Dist.Exponential 3.0) 100_000 1 in
  check_close 0.05 "sample mean" 3.0 m;
  check_close 0.4 "sample variance" 9.0 v

let test_deterministic () =
  Alcotest.(check (float 0.0)) "mean" 2.5 (Dist.mean (Dist.Deterministic 2.5));
  Alcotest.(check (float 0.0)) "variance" 0.0 (Dist.variance (Dist.Deterministic 2.5));
  let g = Prng.create 2 in
  for _ = 1 to 10 do
    Alcotest.(check (float 0.0)) "constant" 2.5 (Dist.sample g (Dist.Deterministic 2.5))
  done

let test_uniform_moments () =
  let d = Dist.Uniform (1.0, 3.0) in
  Alcotest.(check (float 0.0)) "mean" 2.0 (Dist.mean d);
  check_close 1e-12 "variance" (1.0 /. 3.0) (Dist.variance d);
  let m, v = sample_mean_var d 100_000 3 in
  check_close 0.02 "sample mean" 2.0 m;
  check_close 0.02 "sample variance" (1.0 /. 3.0) v

let test_normal_moments () =
  let d = Dist.Normal (10.0, 2.0) in
  let m, v = sample_mean_var d 100_000 4 in
  check_close 0.05 "sample mean" 10.0 m;
  check_close 0.15 "sample variance" 4.0 v

let test_normal_truncated_nonnegative () =
  (* Mean close to zero: truncation at 0 must never yield negatives. *)
  let d = Dist.Normal (0.5, 1.0) in
  let g = Prng.create 5 in
  for _ = 1 to 20_000 do
    Alcotest.(check bool) "non-negative" true (Dist.sample g d >= 0.0)
  done

let test_erlang_moments () =
  let d = Dist.Erlang (4, 8.0) in
  Alcotest.(check (float 0.0)) "mean" 8.0 (Dist.mean d);
  Alcotest.(check (float 0.0)) "variance" 16.0 (Dist.variance d);
  let m, v = sample_mean_var d 100_000 6 in
  check_close 0.1 "sample mean" 8.0 m;
  check_close 0.7 "sample variance" 16.0 v

let test_weibull_moments () =
  (* Shape 1 degenerates to exponential with mean = scale. *)
  let d = Dist.Weibull (1.0, 2.0) in
  check_close 1e-9 "mean = scale" 2.0 (Dist.mean d);
  check_close 1e-6 "variance = scale^2" 4.0 (Dist.variance d);
  let m, _ = sample_mean_var (Dist.Weibull (2.0, 3.0)) 100_000 7 in
  check_close 0.05 "k=2 sample mean" (Dist.mean (Dist.Weibull (2.0, 3.0))) m

let test_to_string_of_string_roundtrip () =
  let dists =
    [
      Dist.Exponential 0.25;
      Dist.Deterministic 3.0;
      Dist.Uniform (1.0, 2.0);
      Dist.Normal (0.8, 0.0345);
      Dist.Erlang (3, 5.0);
      Dist.Weibull (1.5, 2.0);
    ]
  in
  List.iter
    (fun d ->
      match Dist.of_string (Dist.to_string d) with
      | Ok d' ->
          Alcotest.(check bool)
            (Printf.sprintf "roundtrip %s" (Dist.to_string d))
            true (Dist.equal d d')
      | Error e -> Alcotest.failf "roundtrip failed: %s" e)
    dists

let test_of_string_errors () =
  let expect_error s =
    match Dist.of_string s with
    | Ok _ -> Alcotest.failf "expected error for %S" s
    | Error _ -> ()
  in
  List.iter expect_error
    [ "exp"; "exp()"; "exp(-1)"; "exp(0)"; "unif(3,1)"; "gauss(1,2)";
      "erlang(1.5,2)"; "det(-1)"; "norm(1,-1)"; "weibull(0,1)";
      "norm(-1,1)"; "exp(inf)"; "det(nan)"; "erlang(0,1)"; "unif(1)" ]

let test_equal_distinguishes () =
  Alcotest.(check bool) "exp vs det" false
    (Dist.equal (Dist.Exponential 1.0) (Dist.Deterministic 1.0));
  Alcotest.(check bool) "param diff" false
    (Dist.equal (Dist.Normal (1.0, 2.0)) (Dist.Normal (1.0, 3.0)))

let test_sampling_deterministic_given_seed () =
  let d = Dist.Normal (5.0, 1.0) in
  let a = Dist.sample (Prng.create 99) d in
  let b = Dist.sample (Prng.create 99) d in
  Alcotest.(check (float 0.0)) "reproducible" a b

(* Three draws per family from one seed, pinned bit for bit: the samplers
   write straight into the simulator's clock array, and that rewrite
   must keep every family's draw order and arithmetic (the normal's
   third draw comes from resampling a negative value). *)
let test_samples_pinned () =
  List.iter
    (fun (d, expected) ->
      let g = Prng.create 7 in
      let got = List.init 3 (fun _ -> Dist.sample g d) in
      List.iter2
        (fun e x ->
          if not (Int64.equal (Int64.bits_of_float e) (Int64.bits_of_float x))
          then
            Alcotest.failf "%s: got %h, pinned %h" (Dist.to_string d) x e)
        expected got)
    [
      (Dist.Exponential 2.0,
       [ 0x1.f9dfa91949292p-1; 0x1.1564fc853fd13p-5; 0x1.27b5522e52a86p+2 ]);
      (Dist.Deterministic 1.5, [ 1.5; 1.5; 1.5 ]);
      (Dist.Uniform (1.0, 3.0),
       [ 0x1.c797c3c8b2641p+0; 0x1.089879afe878cp+0; 0x1.66984080bab12p+1 ]);
      (Dist.Normal (0.1, 1.0),
       [ 0x1.dd40e17953802p-5; 0x1.f3f5610ddd497p-1; 0x1.339b1663ccc56p+0 ]);
      (Dist.Erlang (3, 6.0),
       [ 0x1.691c114a864d2p+2; 0x1.c382b1d6649eap+1; 0x1.2c3cd5e831706p+1 ]);
      (Dist.Weibull (1.5, 2.0),
       [ 0x1.3ff6343d3d67ap+0; 0x1.0e124492f7389p-3; 0x1.bf6109b970e0fp+1 ]);
    ]

let prop_samples_nonnegative =
  QCheck.Test.make ~count:100 ~name:"all samples are non-negative durations"
    QCheck.(pair (int_bound 5) (float_range 0.01 50.0))
    (fun (kind, p) ->
      let dist =
        match kind with
        | 0 -> Dist.Exponential p
        | 1 -> Dist.Deterministic p
        | 2 -> Dist.Uniform (p /. 2.0, p)
        | 3 -> Dist.Normal (p, p /. 2.0)
        | 4 -> Dist.Erlang (2, p)
        | _ -> Dist.Weibull (1.5, p)
      in
      let g = Prng.create (int_of_float (p *. 1000.0)) in
      let ok = ref true in
      for _ = 1 to 200 do
        if Dist.sample g dist < 0.0 then ok := false
      done;
      !ok)

let prop_sample_mean_tracks_mean =
  QCheck.Test.make ~count:30 ~name:"empirical mean tracks analytic mean"
    QCheck.(pair (int_bound 4) (float_range 0.5 20.0))
    (fun (kind, p) ->
      let dist =
        match kind with
        | 0 -> Dist.Exponential p
        | 1 -> Dist.Deterministic p
        | 2 -> Dist.Uniform (p /. 2.0, p)
        | 3 -> Dist.Erlang (3, p)
        | _ -> Dist.Weibull (2.0, p)
      in
      let g = Prng.create 1234 in
      let acc = Dpma_util.Stats.accumulator () in
      for _ = 1 to 20_000 do
        Dpma_util.Stats.add acc (Dist.sample g dist)
      done;
      let m = Dpma_util.Stats.mean acc in
      abs_float (m -. Dist.mean dist) < 0.1 *. Dist.mean dist +. 0.05)

let qtests = [ prop_samples_nonnegative; prop_sample_mean_tracks_mean ]

let suite =
  [
    Alcotest.test_case "exponential moments" `Quick test_exponential_moments;
    Alcotest.test_case "deterministic" `Quick test_deterministic;
    Alcotest.test_case "uniform moments" `Quick test_uniform_moments;
    Alcotest.test_case "normal moments" `Quick test_normal_moments;
    Alcotest.test_case "normal truncation" `Quick test_normal_truncated_nonnegative;
    Alcotest.test_case "erlang moments" `Quick test_erlang_moments;
    Alcotest.test_case "weibull moments" `Quick test_weibull_moments;
    Alcotest.test_case "string roundtrip" `Quick test_to_string_of_string_roundtrip;
    Alcotest.test_case "of_string errors" `Quick test_of_string_errors;
    Alcotest.test_case "samples pinned per family" `Quick test_samples_pinned;
    Alcotest.test_case "equality" `Quick test_equal_distinguishes;
    Alcotest.test_case "sampling reproducible" `Quick test_sampling_deterministic_given_seed;
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) qtests
