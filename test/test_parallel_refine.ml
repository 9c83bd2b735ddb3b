(* Differential tests for the parallel signature-refinement loop
   (lib/lts/bisim.ml): for any job count the refinement must produce the
   same partition arrays, quotient CSRs, noninterference verdicts and
   distinguishing formulas as the sequential pass. Every parallel leg
   forces [par_cutoff:0] so each round is dealt to the domain pool even
   though the adaptive default would (correctly, for speed) run models
   this small — or any model, on a single-core box — in the coordinating
   domain; on such hardware the pool oversubscribes, which is exactly the
   scheduling noise a merge-order bug would surface under. *)

module Lts = Dpma_lts.Lts
module Bisim = Dpma_lts.Bisim
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

let streaming_lts =
  lazy
    (Lts.of_spec
       (Streaming.elaborate ~mode:Streaming.Markovian ~monitors:true
          Streaming.default_params)
         .Elaborate.spec)

(* Same one-station model as test_parallel_build: 13551 states. *)
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

let simplified_rpc_lts =
  lazy (Lts.of_spec (Elaborate.elaborate (Rpc.simplified_archi ())).Elaborate.spec)

(* The buffer-size-1 streaming system of test_noninterference: the
   full-capacity model's product check saturates tens of seconds of
   work, far too much for a differential that runs at three job
   counts. *)
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

let check_partition name p q =
  Alcotest.(check bool) (name ^ ": partitions identical") true (p = q)

let check_csr_identical name (a : Lts.t) (b : Lts.t) =
  Alcotest.(check int) (name ^ ": init") a.Lts.init b.Lts.init;
  Alcotest.(check int) (name ^ ": num_states") a.Lts.num_states b.Lts.num_states;
  let arr field eq = Alcotest.(check bool) (name ^ ": " ^ field) true eq in
  arr "row" (a.Lts.row = b.Lts.row);
  arr "lab" (a.Lts.lab = b.Lts.lab);
  arr "tgt" (a.Lts.tgt = b.Lts.tgt);
  arr "rate_kind" (a.Lts.rate_kind = b.Lts.rate_kind);
  arr "rate_val" (a.Lts.rate_val = b.Lts.rate_val);
  arr "rate_prio" (a.Lts.rate_prio = b.Lts.rate_prio)

(* Refines at 1, 2 and 4 jobs with each saturation-free signature kind
   and checks the partitions entry-for-entry identical; the strong
   quotients must then be bit-identical CSRs as well. *)
let refine_kinds : (string * (?jobs:int -> ?par_cutoff:int -> Lts.t -> int array)) list =
  [
    ("strong", Bisim.strong_partition);
    ("branching", Bisim.branching_partition);
    ("markovian", Bisim.markovian_partition);
  ]

let check_jobs_identical name lts =
  List.iter
    (fun ((kind, refine) : string * (?jobs:int -> ?par_cutoff:int -> Lts.t -> int array)) ->
      let p1 = refine ~jobs:1 lts in
      let p2 = refine ~jobs:2 ~par_cutoff:0 lts in
      let p4 = refine ~jobs:4 ~par_cutoff:0 lts in
      check_partition (name ^ " " ^ kind ^ " j1 vs j2") p1 p2;
      check_partition (name ^ " " ^ kind ^ " j1 vs j4") p1 p4)
    refine_kinds;
  check_csr_identical
    (name ^ " strong quotient j1 vs j4")
    (Bisim.minimize_strong ~jobs:1 lts)
    (Bisim.minimize_strong ~jobs:4 ~par_cutoff:0 lts)

let test_rpc_jobs () =
  let lts = Lazy.force rpc_lts in
  check_jobs_identical "rpc" lts;
  (* Saturation is affordable at 546 states: the weak partition too. *)
  check_partition "rpc weak j1 vs j4"
    (Bisim.weak_partition ~jobs:1 lts)
    (Bisim.weak_partition ~jobs:4 ~par_cutoff:0 lts)

let test_streaming_jobs () = check_jobs_identical "streaming" (Lazy.force streaming_lts)
let test_scaled_jobs () = check_jobs_identical "scaled" (Lazy.force scaled_lts)

(* The watched product refiner: the early-exit check runs in the
   coordinator on the merged round result, so the verdict, the splitting
   round and the extracted formula must all be independent of the job
   count. The simplified rpc is the paper's INSECURE example; the
   streaming system its SECURE one. *)
(* A noninterference product front; with more than one job, every
   round is dealt to the pool. *)
let front jobs a b = Bisim.product_front ~jobs ~par_cutoff:0 a b

let test_product_verdicts () =
  let high a = List.mem a Rpc.high_actions in
  let low a = List.mem a Rpc.low_actions_simplified in
  let hidden, removed =
    NI.observed_pair (Lazy.force simplified_rpc_lts) ~high ~low
  in
  let trail jobs =
    match Bisim.weak_front_check ~jobs ~par_cutoff:0 (front jobs hidden removed) with
    | Bisim.Product_secure _ -> Alcotest.fail "simplified rpc must be insecure"
    | Bisim.Product_insecure trail -> trail
  in
  let t1 = trail 1 and t2 = trail 2 and t4 = trail 4 in
  List.iter
    (fun (name, (t : Bisim.product_trail)) ->
      Alcotest.(check int)
        (name ^ ": split round")
        t1.Bisim.split_round t.Bisim.split_round;
      Alcotest.(check string)
        (name ^ ": distinguishing formula")
        (Hml.to_string ~weak:true (Diagnose.of_product_trail t1))
        (Hml.to_string ~weak:true (Diagnose.of_product_trail t)))
    [ ("j2", t2); ("j4", t4) ]

let test_product_secure_verdicts () =
  let high a = List.mem a Streaming.high_actions in
  let low a = List.mem a Streaming.low_actions in
  let hidden, removed =
    NI.observed_pair (Lazy.force small_streaming_lts) ~high ~low
  in
  let result jobs =
    match Bisim.weak_front_check ~jobs ~par_cutoff:0 (front jobs hidden removed) with
    | Bisim.Product_secure { partition; rounds } -> (partition, rounds)
    | Bisim.Product_insecure _ -> Alcotest.fail "streaming must be secure"
  in
  let p1, r1 = result 1 and p4, r4 = result 4 in
  Alcotest.(check int) "secure exit round j1=j4" r1 r4;
  check_partition "product partition j1 vs j4" p1 p4;
  Alcotest.(check bool) "branching product j1=j4"
    (Bisim.branching_front_secure ~jobs:1 (front 1 hidden removed))
    (Bisim.branching_front_secure ~jobs:4 ~par_cutoff:0 (front 4 hidden removed));
  Alcotest.(check bool) "trace product j1=j4"
    (Bisim.trace_front_secure ~jobs:1 (front 1 hidden removed))
    (Bisim.trace_front_secure ~jobs:4 ~par_cutoff:0 (front 4 hidden removed))

(* Repeatedly deals the same refinement to four domains (oversubscribed
   on small hosts — the harshest interleavings) and compares every run
   against the sequential baseline: a racy chunk merge, a torn
   [new_block] write or a worker-state leak between rounds shows up as a
   partition mismatch on some iteration. *)
let test_refine_race_hammer () =
  let lts = Lazy.force streaming_lts in
  let baseline = Bisim.strong_partition ~jobs:1 lts in
  for i = 1 to 6 do
    let p = Bisim.strong_partition ~jobs:4 ~par_cutoff:0 lts in
    check_partition (Printf.sprintf "hammer round %d" i) baseline p
  done

(* Disjoint unions of 1 to 12 LTSs from test_lts's generator: up to 96
   states, so most span more than one 32-state refinement chunk and
   exercise the ordered chunk merge. *)
let arb_union =
  QCheck.make
    ~print:(fun l -> Format.asprintf "%a" Lts.pp_stats l)
    QCheck.Gen.(
      list_size (int_range 1 12) Test_lts.gen_lts >|= function
      | [] -> assert false
      | first :: rest ->
          List.fold_left
            (fun acc l ->
              let u, _, _ = Lts.disjoint_union acc l in
              u)
            first rest)

(* The same identities on generated LTSs: every partition kind, and the
   verdict of every noninterference product front — the weak one with
   its exit round — at one job and at four with every round dealt to the
   pool. *)
let prop_generated_jobs_identical =
  QCheck.Test.make ~count:100
    ~name:"generated LTSs: partitions and product verdicts jobs-identical"
    (QCheck.pair arb_union arb_union)
    (fun (a, b) ->
      let partitions_agree lts
          ((_, refine) :
            string * (?jobs:int -> ?par_cutoff:int -> Lts.t -> int array)) =
        refine ~jobs:1 lts = refine ~jobs:4 ~par_cutoff:0 lts
      in
      let weak_outcome jobs =
        match Bisim.weak_front_check ~jobs ~par_cutoff:0 (front jobs a b) with
        | Bisim.Product_secure { partition; rounds } -> Ok (partition, rounds)
        | Bisim.Product_insecure t -> Error t.Bisim.split_round
      in
      List.for_all
        (fun lts ->
          List.for_all (partitions_agree lts)
            (("weak", Bisim.weak_partition) :: refine_kinds))
        [ a; b ]
      && weak_outcome 1 = weak_outcome 4
      && Bisim.branching_front_secure ~jobs:1 (front 1 a b)
         = Bisim.branching_front_secure ~jobs:4 ~par_cutoff:0 (front 4 a b)
      && Bisim.trace_front_secure ~jobs:1 (front 1 a b)
         = Bisim.trace_front_secure ~jobs:4 ~par_cutoff:0 (front 4 a b))

let suite =
  [
    Alcotest.test_case "rpc refine jobs-identical" `Quick test_rpc_jobs;
    Alcotest.test_case "streaming refine jobs-identical" `Quick test_streaming_jobs;
    Alcotest.test_case "scaled refine jobs-identical" `Quick test_scaled_jobs;
    Alcotest.test_case "product verdicts jobs-identical" `Quick test_product_verdicts;
    Alcotest.test_case "secure product jobs-identical" `Quick test_product_secure_verdicts;
    Alcotest.test_case "refine race hammer" `Quick test_refine_race_hammer;
    QCheck_alcotest.to_alcotest ~long:false prop_generated_jobs_identical;
  ]
