(* Differential tests for the parallel level-synchronous LTS builder
   (lib/lts/lts.ml): for any job count the builder must produce the same
   state numbering and bit-identical packed CSR arrays as the sequential
   BFS, and downstream equivalence verdicts must agree. Also hammers the
   shared SOS engine from four domains to pin down that Semantics.stats
   is race-free. *)

module Term = Dpma_pa.Term
module Semantics = Dpma_pa.Semantics
module Lts = Dpma_lts.Lts
module Bisim = Dpma_lts.Bisim
module Rpc = Dpma_models.Rpc
module Streaming = Dpma_models.Streaming
module Elaborate = Dpma_adl.Elaborate

let rpc_spec =
  lazy
    (Rpc.elaborate ~mode:Rpc.Markovian ~monitors:true Rpc.default_params)
      .Elaborate.spec

let streaming_spec =
  lazy
    (Streaming.elaborate ~mode:Streaming.Markovian ~monitors:true
       Streaming.default_params)
      .Elaborate.spec

(* One station with its radio channel and widened buffers: 13551 states
   with a peak BFS frontier of 274. The differential builds force
   [par_threshold:0] so every round is dealt to the pool even though the
   adaptive default would (correctly, for speed) run frontiers this small
   in the coordinating domain. *)
let scaled_test_params =
  {
    Streaming.stations = 1;
    Streaming.radio_channel = true;
    Streaming.station =
      {
        Streaming.default_params with
        Streaming.ap_buffer_size = 8;
        Streaming.client_buffer_size = 8;
      };
  }

let scaled_spec = lazy (Streaming.scaled_spec scaled_test_params)

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

(* Builds at 1, 2 and 4 jobs and checks every CSR field bit-identical;
   returns the three LTSs for downstream verdict checks. [par_threshold:0]
   forces every round through the pool regardless of frontier size. *)
let check_jobs_identical ?(max_states = 500_000) name spec =
  let l1, s1 = Lts.build ~max_states ~jobs:1 spec in
  let l2, s2 = Lts.build ~max_states ~jobs:2 ~par_threshold:0 spec in
  let l4, s4 = Lts.build ~max_states ~jobs:4 ~par_threshold:0 spec in
  check_csr_identical (name ^ " j1 vs j2") l1 l2;
  check_csr_identical (name ^ " j1 vs j4") l1 l4;
  Alcotest.(check int) (name ^ ": rounds j1=j2") s1.Lts.rounds s2.Lts.rounds;
  Alcotest.(check int) (name ^ ": rounds j1=j4") s1.Lts.rounds s4.Lts.rounds;
  Alcotest.(check int) (name ^ ": jobs recorded") 4 s4.Lts.jobs;
  (l1, l2, l4)

let blocks partition = Array.fold_left max 0 partition + 1

let test_rpc_jobs () =
  let l1, _, l4 = check_jobs_identical "rpc" (Lazy.force rpc_spec) in
  Alcotest.(check int) "rpc: 546 states" 546 l1.Lts.num_states;
  (* Identical numbering means identical state names, edge for edge. *)
  let names_agree = ref true in
  for i = 0 to l1.Lts.num_states - 1 do
    if not (String.equal (l1.Lts.state_name i) (l4.Lts.state_name i)) then
      names_agree := false
  done;
  Alcotest.(check bool) "rpc: state names agree" true !names_agree;
  (* Downstream verdicts computed from each build agree. *)
  Alcotest.(check int) "rpc: weak-minimized size"
    (Bisim.minimize_weak l1).Lts.num_states
    (Bisim.minimize_weak l4).Lts.num_states;
  Alcotest.(check bool) "rpc: weak equivalent across job counts" true
    (Bisim.weak_equivalent l1 l4)

let test_streaming_jobs () =
  let l1, l2, _ = check_jobs_identical "streaming" (Lazy.force streaming_spec) in
  Alcotest.(check int) "streaming: 19133 states" 19133 l1.Lts.num_states;
  Alcotest.(check int) "streaming: strong partition blocks"
    (blocks (Bisim.strong_partition l1))
    (blocks (Bisim.strong_partition l2))

let test_scaled_jobs () =
  let l1, _, l4 = check_jobs_identical "scaled" (Lazy.force scaled_spec) in
  Alcotest.(check int) "scaled: 13551 states" 13551 l1.Lts.num_states;
  Alcotest.(check int) "scaled: strong partition blocks"
    (blocks (Bisim.strong_partition l1))
    (blocks (Bisim.strong_partition l4))

(* Collects every reachable rpc term, so the engine's memo table covers
   the whole state space; a subsequent top-level [derive] then returns on
   its first lookup, i.e. each call is exactly one memo hit. Four domains
   hammering [derive] concurrently must therefore advance [stats] by
   exactly (domains * rounds * terms) hits — a lost atomic increment or a
   torn counter shows up as a shortfall, and a race in the memo itself as
   a spurious miss or a wrong derivative. *)
let test_stats_race_free () =
  let spec = Lazy.force rpc_spec in
  let engine = Semantics.make spec.Term.defs in
  let seen = Hashtbl.create 1024 in
  let queue = Queue.create () in
  let add t =
    if not (Hashtbl.mem seen t.Term.uid) then begin
      Hashtbl.add seen t.Term.uid ();
      Queue.add t queue
    end
  in
  add spec.Term.init;
  let acc = ref [] in
  while not (Queue.is_empty queue) do
    let t = Queue.pop queue in
    acc := t :: !acc;
    List.iter (fun (_, _, k) -> add k) (Semantics.derive engine t)
  done;
  let terms = Array.of_list !acc in
  let n = Array.length terms in
  Alcotest.(check int) "rpc reachable terms" 546 n;
  let checksum () =
    Array.fold_left
      (fun total t -> total + List.length (Semantics.derive engine t))
      0 terms
  in
  let expected_sum = checksum () in
  let before = Semantics.stats engine in
  let domains = 4 and rounds = 8 in
  let sums =
    Array.init domains (fun _ ->
        Domain.spawn (fun () ->
            let s = ref 0 in
            for _ = 1 to rounds do
              s := checksum ()
            done;
            !s))
    |> Array.map Domain.join
  in
  Array.iter
    (fun s ->
      Alcotest.(check int) "derivatives identical under concurrency"
        expected_sum s)
    sums;
  let after = Semantics.stats engine in
  Alcotest.(check int) "hits account for every concurrent derive"
    (before.Semantics.hits + (domains * rounds * n))
    after.Semantics.hits;
  Alcotest.(check int) "no spurious misses" before.Semantics.misses
    after.Semantics.misses

(* A round that both crosses the state cap and reaches an ill-rated
   synchronization reports the synchronization, however it is
   scheduled: a parallel round derives its frontier before emitting,
   and a round run in the coordinating domain, which emits as it
   derives, finishes the round's derivations before reporting the cap.
   The second frontier is [s1; s2]: [s1]'s successor would be state 3,
   [s2] synchronizes two active [s] actions. *)
let test_round_error_precedence () =
  let r = Dpma_pa.Rate.exp 1.0 in
  let s1 = Term.prefix "x" r (Term.prefix "y" r Term.stop) in
  let active = Term.prefix "s" r Term.stop in
  let s2 = Term.par_names active [ "s" ] active in
  let init = Term.choice [ Term.prefix "go1" r s1; Term.prefix "go2" r s2 ] in
  let spec = Term.spec ~defs:[] ~init in
  List.iter
    (fun (jobs, par_threshold) ->
      match Lts.build ~max_states:3 ~jobs ~par_threshold spec with
      | _ -> Alcotest.fail "expected Sync_error"
      | exception Semantics.Sync_error { action; _ } ->
          Alcotest.(check string)
            (Printf.sprintf "jobs %d: the synchronization" jobs)
            "s" action)
    [ (1, 0); (2, 0); (2, max_int) ]

let suite =
  [
    Alcotest.test_case "rpc jobs-identical" `Quick test_rpc_jobs;
    Alcotest.test_case "streaming jobs-identical" `Quick test_streaming_jobs;
    Alcotest.test_case "scaled jobs-identical" `Quick test_scaled_jobs;
    Alcotest.test_case "semantics stats race-free" `Quick test_stats_race_free;
    Alcotest.test_case "round errors independent of scheduling" `Quick
      test_round_error_precedence;
  ]
