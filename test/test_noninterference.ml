(* Tests for the noninterference analysis — including the paper's Sect. 3
   results: the simplified rpc fails with a diagnostic formula, the
   revised rpc and the streaming system pass. *)

module Rate = Dpma_pa.Rate
module Term = Dpma_pa.Term
module Lts = Dpma_lts.Lts
module Bisim = Dpma_lts.Bisim
module Tau = Dpma_lts.Tau
module Hml = Dpma_lts.Hml
module NI = Dpma_core.Noninterference
module Rpc = Dpma_models.Rpc
module Streaming = Dpma_models.Streaming
module Elaborate = Dpma_adl.Elaborate

let r = Rate.exp 1.0
let pre a k = Term.prefix a r k

(* ------------------------------------------------------------------ *)
(* Small handcrafted systems *)

let test_interfering_toy_system () =
  (* high action switches off the low action forever: clearly insecure. *)
  let defs =
    [
      ("P", Term.choice [ pre "low" (Term.call "P"); pre "high" (Term.call "Off") ]);
      ("Off", pre "internal" (Term.call "Off"));
    ]
  in
  let spec = Term.spec ~defs ~init:(Term.call "P") in
  match NI.check_spec spec ~high:[ "high" ] ~low:[ "low" ] with
  | NI.Secure -> Alcotest.fail "expected insecure"
  | NI.Insecure formula ->
      Alcotest.(check bool) "non-trivial formula" true (Hml.size formula > 1)

let test_transparent_toy_system () =
  (* high action leads to a state with identical low behavior: secure. *)
  let defs =
    [
      ("P", Term.choice [ pre "low" (Term.call "P"); pre "high" (Term.call "Q") ]);
      ("Q", pre "low" (Term.call "Q"));
    ]
  in
  let spec = Term.spec ~defs ~init:(Term.call "P") in
  (match NI.check_spec spec ~high:[ "high" ] ~low:[ "low" ] with
  | NI.Secure -> ()
  | NI.Insecure f -> Alcotest.failf "expected secure, got %s" (Hml.to_string f))

let test_observed_pair_shapes () =
  let defs =
    [ ("P", Term.choice [ pre "low" (Term.call "P"); pre "high" (Term.call "P") ]) ]
  in
  let spec = Term.spec ~defs ~init:(Term.call "P") in
  let lts = Lts.of_spec spec in
  let hidden, removed =
    NI.observed_pair lts ~high:(String.equal "high") ~low:(String.equal "low")
  in
  Alcotest.(check int) "hidden keeps both transitions" 2 (Lts.num_transitions hidden);
  Alcotest.(check int) "removed drops high" 1 (Lts.num_transitions removed);
  Alcotest.(check bool) "hidden has tau" true
    (List.exists (fun l -> l = Lts.tau) (Lts.enabled hidden 0))

(* ------------------------------------------------------------------ *)
(* Paper results *)

let simplified_spec =
  lazy (Elaborate.elaborate (Rpc.simplified_archi ())).Elaborate.spec

let test_simplified_rpc_fails () =
  match
    NI.check_spec (Lazy.force simplified_spec) ~high:Rpc.high_actions
      ~low:Rpc.low_actions_simplified
  with
  | NI.Secure -> Alcotest.fail "simplified rpc must fail noninterference"
  | NI.Insecure formula ->
      let s = Hml.to_string ~weak:true formula in
      let has sub =
        let n = String.length s and m = String.length sub in
        let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
        go 0
      in
      (* The diagnostic speaks about the client's observable interactions,
         as in the paper's formula. *)
      Alcotest.(check bool) "mentions a client channel" true
        (has "C.send_rpc_packet#RCS.get_packet"
        || has "RSC.deliver_packet#C.receive_result_packet"
        || has "C.process_result_packet")

let test_simplified_rpc_formula_is_sound () =
  let spec = Lazy.force simplified_spec in
  let lts = Lts.of_spec spec in
  let high a = List.mem a Rpc.high_actions in
  let low a = List.mem a Rpc.low_actions_simplified in
  let hidden, removed = NI.observed_pair lts ~high ~low in
  match NI.check_lts lts ~high ~low with
  | NI.Secure -> Alcotest.fail "expected insecure"
  | NI.Insecure formula ->
      let union, ia, ib = Lts.disjoint_union hidden removed in
      let sat = Tau.saturate union in
      Alcotest.(check bool) "formula holds with DPM hidden" true
        (Hml.sat sat ia formula);
      Alcotest.(check bool) "formula fails with DPM removed" false
        (Hml.sat sat ib formula)

let test_revised_rpc_passes () =
  let spec =
    (Rpc.elaborate ~mode:Rpc.Markovian ~monitors:false Rpc.default_params)
      .Elaborate.spec
  in
  match NI.check_spec spec ~high:Rpc.high_actions ~low:Rpc.low_actions with
  | NI.Secure -> ()
  | NI.Insecure f -> Alcotest.failf "revised rpc must pass, got %s" (Hml.to_string f)

let test_revised_rpc_with_monitors_passes () =
  (* Monitor self-loops are internal, so they may not break transparency. *)
  let spec =
    (Rpc.elaborate ~mode:Rpc.Markovian ~monitors:true Rpc.default_params)
      .Elaborate.spec
  in
  match NI.check_spec spec ~high:Rpc.high_actions ~low:Rpc.low_actions with
  | NI.Secure -> ()
  | NI.Insecure _ -> Alcotest.fail "monitors must stay transparent"

let test_streaming_passes () =
  let spec =
    (Streaming.elaborate ~mode:Streaming.Markovian ~monitors:false
       {
         Streaming.default_params with
         ap_buffer_size = 1;
         client_buffer_size = 1;
       })
      .Elaborate.spec
  in
  match
    NI.check_spec spec ~high:Streaming.high_actions ~low:Streaming.low_actions
  with
  | NI.Secure -> ()
  | NI.Insecure f -> Alcotest.failf "streaming must pass, got %s" (Hml.to_string f)

let test_streaming_capacity_insensitive () =
  (* The verdict is the same with slightly larger buffers (the reduction
     used for speed is justified). *)
  let spec =
    (Streaming.elaborate ~mode:Streaming.Markovian ~monitors:false
       {
         Streaming.default_params with
         ap_buffer_size = 2;
         client_buffer_size = 2;
       })
      .Elaborate.spec
  in
  match
    NI.check_spec spec ~high:Streaming.high_actions ~low:Streaming.low_actions
  with
  | NI.Secure -> ()
  | NI.Insecure _ -> Alcotest.fail "verdict changed with capacity"

let test_pp_verdict () =
  let s = Format.asprintf "%a" NI.pp_verdict NI.Secure in
  Alcotest.(check bool) "secure rendering" true (String.length s > 0);
  let s2 =
    Format.asprintf "%a" NI.pp_verdict
      (NI.Insecure (Hml.diamond (Lts.obs "x") Hml.True))
  in
  let has sub str =
    let n = String.length str and m = String.length sub in
    let rec go i = i + m <= n && (String.sub str i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "insecure mentions formula" true
    (has "EXISTS_WEAK_TRANS" s2)

let suite =
  [
    Alcotest.test_case "interfering toy system" `Quick test_interfering_toy_system;
    Alcotest.test_case "transparent toy system" `Quick test_transparent_toy_system;
    Alcotest.test_case "observed pair shapes" `Quick test_observed_pair_shapes;
    Alcotest.test_case "simplified rpc fails (Sect. 3.1)" `Quick test_simplified_rpc_fails;
    Alcotest.test_case "simplified rpc formula sound" `Quick
      test_simplified_rpc_formula_is_sound;
    Alcotest.test_case "revised rpc passes (Sect. 3.1)" `Quick test_revised_rpc_passes;
    Alcotest.test_case "revised rpc with monitors" `Quick
      test_revised_rpc_with_monitors_passes;
    Alcotest.test_case "streaming passes (Sect. 3.2)" `Quick test_streaming_passes;
    Alcotest.test_case "streaming capacity insensitive" `Quick
      test_streaming_capacity_insensitive;
    Alcotest.test_case "verdict rendering" `Quick test_pp_verdict;
  ]

(* ------------------------------------------------------------------ *)
(* Trace-based SNNI vs the paper's bisimulation-based check             *)

let test_simplified_rpc_trace_secure_but_not_bisim () =
  (* The DPM-induced deadlock of the simplified rpc system is invisible to
     prefix-closed trace languages: SNNI passes while the paper's
     weak-bisimulation check fails — exactly why the methodology uses
     bisimulation. *)
  let spec = Lazy.force simplified_spec in
  let lts = Lts.of_spec spec in
  let high a = List.mem a Rpc.high_actions in
  let low a = List.mem a Rpc.low_actions_simplified in
  Alcotest.(check bool) "trace-secure (SNNI)" true
    (NI.trace_secure lts ~high ~low);
  (match NI.check_lts lts ~high ~low with
  | NI.Insecure _ -> ()
  | NI.Secure -> Alcotest.fail "bisimulation check must still fail")

let trace_secure_spec spec ~high ~low =
  NI.trace_secure (Lts.of_spec spec)
    ~high:(fun a -> List.mem a high)
    ~low:(fun a -> List.mem a low)

let test_revised_rpc_trace_secure () =
  let spec =
    (Rpc.elaborate ~mode:Rpc.Markovian ~monitors:false Rpc.default_params)
      .Elaborate.spec
  in
  Alcotest.(check bool) "revised rpc trace-secure" true
    (trace_secure_spec spec ~high:Rpc.high_actions ~low:Rpc.low_actions)

let test_trace_insecure_when_language_differs () =
  (* high enables a brand-new low action: even traces catch that. *)
  let r = Dpma_pa.Rate.exp 1.0 in
  let pre a k = Dpma_pa.Term.prefix a r k in
  let defs =
    [
      ( "P",
        Dpma_pa.Term.choice
          [ pre "low" (Dpma_pa.Term.call "P"); pre "high" (Dpma_pa.Term.call "Q") ] );
      ("Q", pre "extra" (Dpma_pa.Term.call "Q"));
    ]
  in
  let spec = Dpma_pa.Term.spec ~defs ~init:(Dpma_pa.Term.call "P") in
  Alcotest.(check bool) "language difference detected" false
    (trace_secure_spec spec ~high:[ "high" ] ~low:[ "low"; "extra" ])

let trace_ni_suite =
  [
    Alcotest.test_case "simplified rpc: SNNI passes, BSNNI fails" `Quick
      test_simplified_rpc_trace_secure_but_not_bisim;
    Alcotest.test_case "revised rpc trace-secure" `Quick test_revised_rpc_trace_secure;
    Alcotest.test_case "trace-insecure on language difference" `Quick
      test_trace_insecure_when_language_differs;
  ]

(* ------------------------------------------------------------------ *)
(* Single-pass product refiner: differential tests against the two-pass
   pipeline, seeded-insecure mutants, and span/counter accounting *)

module Diagnose = Dpma_lts.Diagnose
module Trace = Dpma_obs.Trace
module Metrics = Dpma_obs.Metrics
module Instruments = Dpma_obs.Instruments

(* The historical two-pass pipeline, reconstructed from the preserved
   public API: verdict via [weak_equivalent] on the pre-reduced pair,
   formula via a fully stabilized splitting tree over the saturated
   union. The single-pass product refiner must be bit-identical. *)
let reference_check hidden removed =
  if Bisim.weak_equivalent hidden removed then None
  else
    let union, ia, ib = Lts.disjoint_union hidden removed in
    let sat = Tau.saturate union in
    match Diagnose.distinguishing_formula sat ia ib with
    | Some f -> Some f
    | None -> Alcotest.fail "reference pipeline disagrees with itself"

let differential spec ~high ~low =
  let lts = Lts.of_spec spec in
  let high a = List.mem a high and low a = List.mem a low in
  let hidden, removed = NI.observed_pair lts ~high ~low in
  match (NI.check_lts lts ~high ~low, reference_check hidden removed) with
  | NI.Secure, None -> ()
  | NI.Secure, Some f ->
      Alcotest.failf "product refiner says SECURE, reference found %s"
        (Hml.to_string f)
  | NI.Insecure _, None ->
      Alcotest.fail "product refiner says INSECURE, reference says SECURE"
  | NI.Insecure f, Some f_ref ->
      Alcotest.(check string) "bit-identical distinguishing formula"
        (Hml.to_string ~weak:true f_ref)
        (Hml.to_string ~weak:true f)

let test_differential_simplified_rpc () =
  differential (Lazy.force simplified_spec) ~high:Rpc.high_actions
    ~low:Rpc.low_actions_simplified

let test_differential_revised_rpc () =
  let spec =
    (Rpc.elaborate ~mode:Rpc.Markovian ~monitors:false Rpc.default_params)
      .Elaborate.spec
  in
  differential spec ~high:Rpc.high_actions ~low:Rpc.low_actions

let small_streaming_spec =
  lazy
    (Streaming.elaborate ~mode:Streaming.Markovian ~monitors:false
       {
         Streaming.default_params with
         ap_buffer_size = 1;
         client_buffer_size = 1;
       })
      .Elaborate.spec

let test_differential_streaming () =
  differential (Lazy.force small_streaming_spec) ~high:Streaming.high_actions
    ~low:Streaming.low_actions

(* Seeded-insecure mutants: declassify the high DPM synchronization into
   the observable alphabet. The hidden side then shows the DPM action
   while the restricted side cannot — the product refiner must take the
   early INSECURE exit, and the trail-driven formula must match the
   reference tree. *)
let test_rpc_mutant_insecure () =
  let spec =
    (Rpc.elaborate ~mode:Rpc.Markovian ~monitors:false Rpc.default_params)
      .Elaborate.spec
  in
  let low = Rpc.low_actions @ Rpc.high_actions in
  let before = Metrics.count Instruments.ni_product_insecure_exits in
  (match NI.check_spec spec ~high:Rpc.high_actions ~low with
  | NI.Secure -> Alcotest.fail "declassified DPM action must be observable"
  | NI.Insecure formula ->
      Alcotest.(check bool) "non-trivial formula" true (Hml.size formula > 1));
  Alcotest.(check bool) "insecure early exit taken" true
    (Metrics.count Instruments.ni_product_insecure_exits > before);
  differential spec ~high:Rpc.high_actions ~low

let test_streaming_mutant_insecure () =
  let spec = Lazy.force small_streaming_spec in
  let low = Streaming.low_actions @ Streaming.high_actions in
  let before = Metrics.count Instruments.ni_product_insecure_exits in
  (match NI.check_spec spec ~high:Streaming.high_actions ~low with
  | NI.Secure -> Alcotest.fail "declassified DPM actions must be observable"
  | NI.Insecure formula ->
      let union, ia, ib =
        let lts = Lts.of_spec spec in
        let hidden, removed =
          NI.observed_pair lts
            ~high:(fun a -> List.mem a Streaming.high_actions)
            ~low:(fun a -> List.mem a low)
        in
        Lts.disjoint_union hidden removed
      in
      let sat = Tau.saturate union in
      Alcotest.(check bool) "formula holds with DPM observable" true
        (Hml.sat sat ia formula);
      Alcotest.(check bool) "formula fails with DPM removed" false
        (Hml.sat sat ib formula));
  Alcotest.(check bool) "insecure early exit taken" true
    (Metrics.count Instruments.ni_product_insecure_exits > before)

(* No saturation per check: the verdict's product refiner runs the lazy
   weak pass (exactly one "bisim.tau.condense" span, zero
   "bisim.saturate"). The INSECURE diagnostic pass accounts its own
   small-model saturation under "diagnose.saturate". *)
let count_spans name =
  let rec go acc (s : Trace.span) =
    let acc = if String.equal s.Trace.name name then acc + 1 else acc in
    List.fold_left go acc s.Trace.children
  in
  List.fold_left go 0 (Trace.roots ())

let with_tracing f =
  Trace.reset ();
  Trace.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Trace.set_enabled false;
      Trace.reset ())
    f

let test_no_saturation_secure_path () =
  let defs =
    [
      ("P", Term.choice [ pre "low" (Term.call "P"); pre "high" (Term.call "Q") ]);
      ("Q", pre "low" (Term.call "Q"));
    ]
  in
  let spec = Term.spec ~defs ~init:(Term.call "P") in
  with_tracing (fun () ->
      (match NI.check_spec spec ~high:[ "high" ] ~low:[ "low" ] with
      | NI.Secure -> ()
      | NI.Insecure _ -> Alcotest.fail "toy system must be secure");
      Alcotest.(check int) "no bisim.saturate span" 0
        (count_spans "bisim.saturate");
      Alcotest.(check int) "one tau condensation" 1
        (count_spans "bisim.tau.condense");
      Alcotest.(check int) "no diagnostic saturation" 0
        (count_spans "diagnose.saturate"))

let test_diagnose_saturation_insecure_path () =
  let defs =
    [
      ("P", Term.choice [ pre "low" (Term.call "P"); pre "high" (Term.call "Off") ]);
      ("Off", pre "internal" (Term.call "Off"));
    ]
  in
  let spec = Term.spec ~defs ~init:(Term.call "P") in
  with_tracing (fun () ->
      (match NI.check_spec spec ~high:[ "high" ] ~low:[ "low" ] with
      | NI.Secure -> Alcotest.fail "toy system must be insecure"
      | NI.Insecure _ -> ());
      Alcotest.(check int) "no bisim.saturate span" 0
        (count_spans "bisim.saturate");
      Alcotest.(check int) "one tau condensation" 1
        (count_spans "bisim.tau.condense");
      Alcotest.(check int) "one diagnostic saturation" 1
        (count_spans "diagnose.saturate"))

let test_product_counters () =
  let secure_before = Metrics.count Instruments.ni_product_secure_exits in
  let pruned_before = Metrics.count Instruments.ni_product_pruned in
  let spec = Lazy.force small_streaming_spec in
  (match
     NI.check_spec spec ~high:Streaming.high_actions ~low:Streaming.low_actions
   with
  | NI.Secure -> ()
  | NI.Insecure _ -> Alcotest.fail "streaming must be secure");
  Alcotest.(check bool) "secure early exit counted" true
    (Metrics.count Instruments.ni_product_secure_exits > secure_before);
  (* Restriction strands DPM-reachable states on the removed side, so the
     reachability pruning must have fired. *)
  Alcotest.(check bool) "unreachable states pruned" true
    (Metrics.count Instruments.ni_product_pruned > pruned_before)

(* The branching decision refines the same reduced sides as the weak one:
   under each "bisim.product" span, the "bisim.refine" spans (the watched
   union; the per-side strong quotients run under "bisim.front") report
   the same state counts. Refining the raw sides would change them. *)
let refine_states_under_products () =
  let rec refines acc (s : Trace.span) =
    let acc =
      if String.equal s.Trace.name "bisim.refine" then
        match List.assoc_opt "states" s.Trace.attrs with
        | Some (Trace.Int n) -> n :: acc
        | _ -> Alcotest.fail "bisim.refine span without a states attribute"
      else acc
    in
    List.fold_left refines acc s.Trace.children
  in
  let rec products acc (s : Trace.span) =
    if String.equal s.Trace.name "bisim.product" then
      List.rev (refines [] s) :: acc
    else List.fold_left products acc s.Trace.children
  in
  List.rev (List.fold_left products [] (Trace.roots ()))

let test_branching_refines_reduced_union () =
  let study = Streaming.study Streaming.default_params in
  let spec = Option.get study.Dpma_core.Pipeline.functional_spec in
  let lts = Lts.of_spec spec in
  let high a = List.mem a Streaming.high_actions
  and low a = List.mem a Streaming.low_actions in
  let weak, branching =
    with_tracing (fun () ->
        (match NI.check_lts ~jobs:1 lts ~high ~low with
        | NI.Secure -> ()
        | NI.Insecure _ -> Alcotest.fail "streaming must be secure");
        Alcotest.(check bool) "branching secure" true
          (NI.branching_secure ~jobs:1 lts ~high ~low);
        match refine_states_under_products () with
        | [ weak; branching ] -> (weak, branching)
        | l -> Alcotest.failf "expected two product spans, got %d" (List.length l))
  in
  let hidden, removed = NI.observed_pair lts ~high ~low in
  let raw = hidden.Lts.num_states + removed.Lts.num_states in
  (match List.rev weak with
  | union :: _ ->
      Alcotest.(check bool) "weak front refines a reduced union" true (union < raw)
  | [] -> Alcotest.fail "weak front ran no refinement");
  Alcotest.(check (list int)) "same refinements, same state counts" weak
    branching

(* One front for the whole hierarchy: [check_hierarchy] reduces the
   observed pair once and decides it finest first — branching, then weak
   only when branching fails, then trace only when weak fails. It must
   report exactly what the three separate calls report — the verdict, the
   formula text, both booleans — and move the ni.product.* counters by
   what the separate calls of the decisions it runs move them (each
   decision records the front's pruned count). Exposed for the fuzz
   property in test_fuzz.ml. *)
let product_counters () =
  List.map Metrics.count
    Instruments.
      [ ni_product_pruned; ni_product_rounds; ni_product_secure_exits;
        ni_product_insecure_exits ]

let with_deltas run =
  let before = product_counters () in
  let result = run () in
  (result, List.map2 ( - ) (product_counters ()) before)

let verdict_text = function
  | NI.Secure -> "SECURE"
  | NI.Insecure f -> Hml.to_string ~weak:true f

let shared_front_matches_separate_calls lts ~high ~low =
  let verdict, weak_d = with_deltas (fun () -> NI.check_lts ~jobs:1 lts ~high ~low) in
  let trace, trace_d = with_deltas (fun () -> NI.trace_secure ~jobs:1 lts ~high ~low) in
  let branching, branching_d =
    with_deltas (fun () -> NI.branching_secure ~jobs:1 lts ~high ~low)
  in
  let ran =
    if branching then [ branching_d ]
    else if verdict = NI.Secure then [ branching_d; weak_d ]
    else [ branching_d; weak_d; trace_d ]
  in
  let separate =
    ( verdict_text verdict,
      trace,
      branching,
      List.fold_left (List.map2 ( + )) [ 0; 0; 0; 0 ] ran )
  in
  let (verdict', trace', branching'), deltas' =
    with_deltas (fun () -> NI.check_hierarchy ~jobs:1 lts ~high ~low)
  in
  let shared = (verdict_text verdict', trace', branching', deltas') in
  (separate = shared, separate, shared)

(* [decisions]: the product decisions the finest-first order runs, read
   off the secure and insecure exit counters. *)
let check_shared_front_lts lts ~high ~low ~expected ~decisions =
  let same, (verdict, trace, branching, deltas), (verdict', _, _, deltas') =
    shared_front_matches_separate_calls lts ~high:(NI.mem_of high)
      ~low:(NI.mem_of low)
  in
  Alcotest.(check string) "verdict and formula" verdict verdict';
  Alcotest.(check (list int)) "ni.product.* deltas" deltas deltas';
  Alcotest.(check bool) "same outcome" true same;
  Alcotest.(check (triple bool bool bool))
    "weak, trace, branching" expected
    (verdict = "SECURE", trace, branching);
  match deltas' with
  | [ _; _; secure; insecure ] ->
      Alcotest.(check int) "decisions run" decisions (secure + insecure)
  | _ -> assert false

let check_shared_front spec = check_shared_front_lts (Lts.of_spec spec)

let test_shared_front_simplified_rpc () =
  check_shared_front (Lazy.force simplified_spec) ~high:Rpc.high_actions
    ~low:Rpc.low_actions_simplified ~expected:(false, true, false) ~decisions:3

let test_shared_front_revised_rpc () =
  check_shared_front
    (Rpc.elaborate ~mode:Rpc.Markovian ~monitors:false Rpc.default_params)
      .Elaborate.spec
    ~high:Rpc.high_actions ~low:Rpc.low_actions ~expected:(true, true, true)
    ~decisions:1

let test_shared_front_streaming () =
  check_shared_front (Lazy.force small_streaming_spec)
    ~high:Streaming.high_actions ~low:Streaming.low_actions
    ~expected:(true, true, true) ~decisions:1

(* Weakly secure but branching-insecure (Milner's third tau law, unrooted:
   tau.b + c + b is weakly but not branching bisimilar to tau.b + c). With
   the DPM hidden, P reaches Q silently; Q offers b both directly and
   after the internal step, P only after it. With the DPM removed, Q is
   unreachable. The weak decision runs after the failed branching one and
   answers the trace question too. *)
let weak_not_branching_lts () =
  let nil = Term.stop in
  let defs =
    [
      ( "P",
        Term.choice
          [ pre "c" nil; pre "i" (Term.call "B"); pre "h" (Term.call "Q") ] );
      ("Q", Term.choice [ pre "i" (Term.call "B"); pre "c" nil; pre "b" nil ]);
      ("B", pre "b" nil);
    ]
  in
  Lts.of_spec (Term.spec ~defs ~init:(Term.call "P"))

let test_shared_front_weak_not_branching () =
  check_shared_front_lts (weak_not_branching_lts ()) ~high:[ "h" ]
    ~low:[ "b"; "c" ] ~expected:(true, true, false) ~decisions:2

(* The shared front's spans: one "bisim.front" (pruning and both
   pre-reductions) and then one "bisim.product" per decision run, each
   refining nothing but its own union. A branching-secure model needs
   one decision; the simplified rpc, insecure at the two finer levels,
   needs all three. *)
let product_spans_of_hierarchy spec ~high ~low =
  let lts = Lts.of_spec spec in
  with_tracing (fun () ->
      ignore
        (NI.check_hierarchy ~jobs:1 lts ~high:(NI.mem_of high)
           ~low:(NI.mem_of low));
      Alcotest.(check int) "one front" 1 (count_spans "bisim.front");
      (count_spans "bisim.product", refine_states_under_products ()))

let test_shared_front_spans () =
  let show l =
    String.concat "; "
      (List.map (fun r -> String.concat "," (List.map string_of_int r)) l)
  in
  (match
     product_spans_of_hierarchy (Lazy.force small_streaming_spec)
       ~high:Streaming.high_actions ~low:Streaming.low_actions
   with
  | 1, [ [ _branching ] ] -> ()
  | n, l -> Alcotest.failf "streaming: %d decisions, refinements %s" n (show l));
  match
    product_spans_of_hierarchy (Lazy.force simplified_spec)
      ~high:Rpc.high_actions ~low:Rpc.low_actions_simplified
  with
  | 3, [ [ branching ]; [ weak ]; [ _trace ] ] ->
      Alcotest.(check int) "weak and branching refine one union" branching weak
  | n, l -> Alcotest.failf "simplified rpc: %d decisions, refinements %s" n (show l)

let product_suite =
  [
    Alcotest.test_case "shared front: simplified rpc" `Quick
      test_shared_front_simplified_rpc;
    Alcotest.test_case "shared front: revised rpc" `Quick
      test_shared_front_revised_rpc;
    Alcotest.test_case "shared front: streaming" `Quick
      test_shared_front_streaming;
    Alcotest.test_case "shared front: weak but not branching" `Quick
      test_shared_front_weak_not_branching;
    Alcotest.test_case "shared front spans" `Quick test_shared_front_spans;
    Alcotest.test_case "differential: simplified rpc" `Quick
      test_differential_simplified_rpc;
    Alcotest.test_case "differential: revised rpc" `Quick test_differential_revised_rpc;
    Alcotest.test_case "differential: streaming" `Quick test_differential_streaming;
    Alcotest.test_case "rpc mutant: early-exit insecure" `Quick
      test_rpc_mutant_insecure;
    Alcotest.test_case "streaming mutant: early-exit insecure" `Quick
      test_streaming_mutant_insecure;
    Alcotest.test_case "no saturation span (secure path)" `Quick
      test_no_saturation_secure_path;
    Alcotest.test_case "diagnose-only saturation (insecure path)" `Quick
      test_diagnose_saturation_insecure_path;
    Alcotest.test_case "product refiner counters" `Quick test_product_counters;
    Alcotest.test_case "branching front refines the reduced union" `Quick
      test_branching_refines_reduced_union;
  ]

let suite = suite @ trace_ni_suite @ product_suite
