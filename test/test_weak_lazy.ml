(* Differential tests for the on-the-fly weak saturation (lib/lts/tau.ml
   + the weak refinement in lib/lts/bisim.ml): the lazy tau-closure path
   must be bit-identical to strong refinement of the materialized
   saturation — reconstructed here from [Tau.saturate] and the public
   refinement API — on partitions, minimized LTSs and equivalence
   verdicts; product verdicts, trails and distinguishing formulas must
   be identical for any job count; and [Tau.weak_signatures] must give,
   under any partition and after any earlier round, exactly the strong
   signatures of the saturated LTS. *)

module Lts = Dpma_lts.Lts
module Bisim = Dpma_lts.Bisim
module Tau = Dpma_lts.Tau
module Hml = Dpma_lts.Hml
module Diagnose = Dpma_lts.Diagnose
module NI = Dpma_core.Noninterference
module Rpc = Dpma_models.Rpc
module Streaming = Dpma_models.Streaming
module Elaborate = Dpma_adl.Elaborate

let rpc_lts =
  lazy
    (Lts.of_spec
       (Rpc.elaborate ~mode:Rpc.Markovian ~monitors:true Rpc.default_params)
         .Elaborate.spec)

let simplified_rpc_lts =
  lazy
    (Lts.of_spec (Elaborate.elaborate (Rpc.simplified_archi ())).Elaborate.spec)

(* Buffer-size-1 streaming: small enough that the oracle's quadratic
   saturation stays affordable inside a differential test. *)
let small_streaming_lts =
  lazy
    (Lts.of_spec
       (Streaming.elaborate ~mode:Streaming.Markovian ~monitors:false
          {
            Streaming.default_params with
            ap_buffer_size = 1;
            client_buffer_size = 1;
          })
         .Elaborate.spec)

(* The one-station scaled model (13551 states) of test_parallel_build. *)
let scaled_lts =
  lazy
    (Lts.of_spec
       (Streaming.scaled_spec
          {
            Streaming.stations = 1;
            Streaming.radio_channel = true;
            Streaming.station =
              {
                Streaming.default_params with
                Streaming.ap_buffer_size = 8;
                Streaming.client_buffer_size = 8;
              };
          }))

let check_partition name p q =
  Alcotest.(check bool) (name ^ ": partitions identical") true (p = q)

(* ------------------------------------------------------------------ *)
(* Partition and minimization differentials against a reconstructed
   materialized-saturation oracle: pre-reduce exactly like
   [weak_partition] (strong quotient, then tau-SCC collapse via
   [Tau.condense]), materialize the saturation of the reduced LTS with
   [Tau.saturate], refine it with strong signatures, and compose. This
   is the retired [--saturate] path, rebuilt from the public API. *)

let oracle_weak_partition lts =
  let p1 = Bisim.strong_partition lts in
  let l1 = Lts.quotient lts p1 in
  let p2 = (Tau.condense l1).Tau.comp_of in
  let l2 = Lts.quotient l1 p2 in
  let p3 = Bisim.strong_partition (Tau.saturate l2) in
  Array.init (Array.length p1) (fun s -> p3.(p2.(p1.(s))))

let test_partition_differentials () =
  List.iter
    (fun (name, lts) ->
      let lts = Lazy.force lts in
      check_partition (name ^ " lazy vs oracle")
        (Bisim.weak_partition lts)
        (oracle_weak_partition lts))
    [
      ("rpc", rpc_lts);
      ("simplified rpc", simplified_rpc_lts);
      ("streaming", small_streaming_lts);
      ("scaled", scaled_lts);
    ]

(* Saturation commutes with disjoint union, so strong bisimilarity of
   the saturated union decides weak bisimilarity — Milner's reduction,
   materialized. *)
let oracle_weak_equivalent x y =
  let union, ia, ib = Lts.disjoint_union x y in
  let p = Bisim.strong_partition (Tau.saturate union) in
  p.(ia) = p.(ib)

let test_equivalent_agrees () =
  let a = Lazy.force rpc_lts and b = Lazy.force small_streaming_lts in
  List.iter
    (fun (name, x, y) ->
      Alcotest.(check bool) name (oracle_weak_equivalent x y)
        (Bisim.weak_equivalent x y))
    [
      ("rpc ~ rpc", a, a);
      ("streaming ~ streaming", b, b);
      ("rpc ~ streaming", a, b);
    ]

(* The lazy [minimize_weak] saturates at quotient size, so its edge
   *order* may differ from the oracle's (which quotients a saturated
   input); states, numbering and per-state edge sets must coincide. *)
let edge_sets (lts : Lts.t) =
  Array.init lts.Lts.num_states (fun s ->
      let rec go i acc =
        if i < lts.Lts.row.(s) then acc
        else go (i - 1) ((lts.Lts.lab.(i), lts.Lts.tgt.(i)) :: acc)
      in
      List.sort_uniq compare (go (lts.Lts.row.(s + 1) - 1) []))

let test_minimize_differentials () =
  List.iter
    (fun (name, lts) ->
      let lts = Lazy.force lts in
      let lazy_min = Bisim.minimize_weak lts in
      let oracle =
        let sat = Tau.saturate lts in
        Lts.quotient sat (Bisim.strong_partition sat)
      in
      Alcotest.(check int) (name ^ ": num_states") oracle.Lts.num_states
        lazy_min.Lts.num_states;
      Alcotest.(check int) (name ^ ": init") oracle.Lts.init lazy_min.Lts.init;
      Alcotest.(check bool) (name ^ ": per-state edge sets") true
        (edge_sets oracle = edge_sets lazy_min))
    [ ("rpc", rpc_lts); ("streaming", small_streaming_lts) ]

(* ------------------------------------------------------------------ *)
(* Product checks: verdicts, trails and formulas must be identical for
   any job count (the watched early exit runs in the coordinator on the
   deterministically merged round result).                              *)

let test_product_insecure_differential () =
  let high a = List.mem a Rpc.high_actions in
  let low a = List.mem a Rpc.low_actions_simplified in
  let hidden, removed =
    NI.observed_pair (Lazy.force simplified_rpc_lts) ~high ~low
  in
  let trail jobs =
    let front = Bisim.product_front ~jobs ~par_cutoff:0 hidden removed in
    match Bisim.weak_front_check ~jobs ~par_cutoff:0 front with
    | Bisim.Product_secure _ -> Alcotest.fail "simplified rpc must be insecure"
    | Bisim.Product_insecure trail -> trail
  in
  let seq_t = trail 1 and par_t = trail 4 in
  Alcotest.(check int) "split round" seq_t.Bisim.split_round
    par_t.Bisim.split_round;
  Alcotest.(check string) "distinguishing formula"
    (Hml.to_string ~weak:true (Diagnose.of_product_trail seq_t))
    (Hml.to_string ~weak:true (Diagnose.of_product_trail par_t))

let test_product_secure_differential () =
  let high a = List.mem a Streaming.high_actions in
  let low a = List.mem a Streaming.low_actions in
  let hidden, removed =
    NI.observed_pair (Lazy.force small_streaming_lts) ~high ~low
  in
  let result jobs =
    let front = Bisim.product_front ~jobs ~par_cutoff:0 hidden removed in
    match Bisim.weak_front_check ~jobs ~par_cutoff:0 front with
    | Bisim.Product_secure { partition; rounds } -> (partition, rounds)
    | Bisim.Product_insecure _ -> Alcotest.fail "streaming must be secure"
  in
  let sp, sr = result 1 and pp, pr = result 4 in
  Alcotest.(check int) "secure exit round" sr pr;
  check_partition "secure product partition" sp pp

(* Declassified mutants (high actions made observable): the early
   INSECURE exit must produce the same formula at any job count. *)
let test_mutant_formula_differential () =
  let spec =
    (Rpc.elaborate ~mode:Rpc.Markovian ~monitors:false Rpc.default_params)
      .Elaborate.spec
  in
  let high = Rpc.high_actions and low = Rpc.low_actions @ Rpc.high_actions in
  let formula jobs =
    match NI.check_spec ~jobs spec ~high ~low with
    | NI.Secure -> Alcotest.fail "declassified DPM action must be observable"
    | NI.Insecure f -> Hml.to_string ~weak:true f
  in
  Alcotest.(check string) "mutant formula" (formula 1) (formula 4)

(* ------------------------------------------------------------------ *)
(* Parallel identity of the weak path                                   *)

let test_weak_jobs_identity () =
  List.iter
    (fun (name, lts) ->
      let lts = Lazy.force lts in
      let p1 = Bisim.weak_partition ~jobs:1 lts in
      let p2 = Bisim.weak_partition ~jobs:2 ~par_cutoff:0 lts in
      let p4 = Bisim.weak_partition ~jobs:4 ~par_cutoff:0 lts in
      check_partition (name ^ " weak j1 vs j2") p1 p2;
      check_partition (name ^ " weak j1 vs j4") p1 p4)
    [ ("rpc", rpc_lts); ("streaming", small_streaming_lts);
      ("scaled", scaled_lts) ]

let test_branching_jobs_identity () =
  let lts = Lazy.force small_streaming_lts in
  check_partition "branching j1 vs j4"
    (Bisim.branching_partition ~jobs:1 lts)
    (Bisim.branching_partition ~jobs:4 ~par_cutoff:0 lts)

(* ------------------------------------------------------------------ *)
(* Signature property on generated systems: [Test_lts.gen_lts] systems
   have tau cycles and are not pre-reduced, so tau-SCCs with several
   members (which every production caller collapses first) are covered
   here. *)

let saturated_signature (sat : Lts.t) block s =
  let pairs = ref [] in
  for i = sat.Lts.row.(s) to sat.Lts.row.(s + 1) - 1 do
    pairs := ((sat.Lts.lab.(i) lsl 31) lor block.(sat.Lts.tgt.(i))) :: !pairs
  done;
  Array.of_list (List.sort_uniq Int.compare !pairs)

let arb_partitioned =
  let gen =
    QCheck.Gen.(
      Test_lts.gen_lts >>= fun lts ->
      let n = lts.Lts.num_states in
      let part = array_size (return n) (int_range 0 (n - 1)) in
      pair part part >|= fun (p1, p2) -> (lts, p1, p2))
  in
  let ints a = String.concat "," (Array.to_list (Array.map string_of_int a)) in
  QCheck.make
    ~print:(fun (lts, p1, p2) ->
      Format.asprintf "%a p1=[%s] p2=[%s]" Lts.pp_stats lts (ints p1) (ints p2))
    gen

let prop_weak_signatures =
  QCheck.Test.make ~count:300
    ~name:"weak_signatures = saturated signatures, stateless across rounds"
    arb_partitioned
    (fun (lts, p1, p2) ->
      let n = lts.Lts.num_states in
      let sat = Tau.saturate lts in
      let weak = Tau.weak_signatures lts in
      let f1 = weak p1 in
      let first = Array.init n f1 in
      let f2 = weak p2 in
      let fresh = Tau.weak_signatures lts p2 in
      List.for_all
        (fun s ->
          f1 s = saturated_signature sat p1 s
          && f2 s = saturated_signature sat p2 s
          && f2 s = fresh s
          && f1 s = first.(s))
        (List.init n Fun.id))

let suite =
  [
    Alcotest.test_case "weak partitions lazy = oracle" `Quick
      test_partition_differentials;
    Alcotest.test_case "weak_equivalent lazy = oracle" `Quick
      test_equivalent_agrees;
    Alcotest.test_case "minimize_weak lazy = oracle" `Quick
      test_minimize_differentials;
    Alcotest.test_case "insecure product trail jobs-identical" `Quick
      test_product_insecure_differential;
    Alcotest.test_case "secure product jobs-identical" `Quick
      test_product_secure_differential;
    Alcotest.test_case "mutant formula jobs-identical" `Quick
      test_mutant_formula_differential;
    Alcotest.test_case "lazy weak jobs-identical" `Quick
      test_weak_jobs_identity;
    Alcotest.test_case "branching jobs-identical" `Quick
      test_branching_jobs_identity;
    QCheck_alcotest.to_alcotest ~long:false prop_weak_signatures;
  ]
