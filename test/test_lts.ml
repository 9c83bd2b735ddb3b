(* Tests for LTS construction, bisimulations, HML, distinguishing
   formulas, minimization. *)

module Rate = Dpma_pa.Rate
module Term = Dpma_pa.Term
module Lts = Dpma_lts.Lts
module Bisim = Dpma_lts.Bisim
module Tau = Dpma_lts.Tau
module Hml = Dpma_lts.Hml
module Diagnose = Dpma_lts.Diagnose

let r = Rate.exp 1.0
let pre a k = Term.prefix a r k
let spec init = Term.spec ~defs:[] ~init
let lts_of init = Lts.of_spec (spec init)

(* Handy manual LTS constructor: n states, init 0, edge list. *)
let mk_lts n edges =
  let trans = Array.make n [] in
  List.iter
    (fun (s, label, t) ->
      trans.(s) <- { Lts_fixture.label; rate = None; target = t } :: trans.(s))
    edges;
  Lts_fixture.make ~init:0 ~state_name:string_of_int trans

let obs a = Lts.obs a

(* ------------------------------------------------------------------ *)
(* Construction *)

let test_of_spec_counts () =
  let t = pre "a" (pre "b" Term.stop) in
  let lts = lts_of t in
  Alcotest.(check int) "three states" 3 lts.Lts.num_states;
  Alcotest.(check int) "two transitions" 2 (Lts.num_transitions lts)

let test_of_spec_sharing () =
  (* a.P + b.P must share the continuation state. *)
  let defs = [ ("P", Term.choice [ pre "a" (Term.call "P"); pre "b" (Term.call "P") ]) ] in
  let lts = Lts.of_spec (Term.spec ~defs ~init:(Term.call "P")) in
  Alcotest.(check int) "single state" 1 lts.Lts.num_states;
  Alcotest.(check int) "two loops" 2 (Lts.num_transitions lts)

let test_of_spec_max_states () =
  (* A counter that grows forever: interleaving of unboundedly many a's is
     modelled by nested parallel... simpler: use recursion through Par is
     not expressible; instead check the bound triggers on a finite but
     larger-than-bound space. *)
  let t = pre "a" (pre "b" (pre "c" Term.stop)) in
  (try
     ignore (Lts.of_spec ~max_states:2 (spec t));
     Alcotest.fail "expected Too_many_states"
   with Lts.Too_many_states 2 -> ())

let test_labels_and_enabled () =
  let t = Term.choice [ pre "b" Term.stop; pre "a" Term.stop; Term.prefix Term.tau r Term.stop ] in
  let lts = lts_of t in
  Alcotest.(check int) "three labels" 3 (List.length (Lts.labels lts));
  Alcotest.(check bool) "enables a" true
    (Lts.enables_label lts lts.Lts.init (Lts.obs "a"));
  Alcotest.(check bool) "not c" false
    (Lts.enables_label lts lts.Lts.init (Lts.obs "c"))

let test_deadlock_states () =
  let lts = lts_of (pre "a" Term.stop) in
  Alcotest.(check int) "one deadlock" 1 (List.length (Lts.deadlock_states lts))

let test_reachable_from () =
  let lts = mk_lts 3 [ (0, obs "a", 1) ] in
  let seen = Lts.reachable_from lts 0 in
  Alcotest.(check bool) "0 reach" true seen.(0);
  Alcotest.(check bool) "1 reach" true seen.(1);
  Alcotest.(check bool) "2 unreachable" false seen.(2)

let test_quotient () =
  let lts = mk_lts 4 [ (0, obs "a", 1); (0, obs "a", 2); (1, obs "b", 3); (2, obs "b", 3) ] in
  let block = [| 0; 1; 1; 2 |] in
  let q = Lts.quotient lts block in
  Alcotest.(check int) "three classes" 3 q.Lts.num_states;
  (* Duplicate (a, class 1) edges merge. *)
  Alcotest.(check int) "two transitions" 2 (Lts.num_transitions q)

let test_map_labels_hide_restrict () =
  let lts = mk_lts 3 [ (0, obs "keep", 1); (0, obs "drop", 2) ] in
  let hidden = Lts.hide_all_but lts ~keep:(String.equal "keep") in
  Alcotest.(check int) "hide keeps transitions" 2 (Lts.num_transitions hidden);
  Alcotest.(check bool) "tau present" true
    (List.exists (fun l -> l = Lts.tau) (Lts.enabled hidden 0));
  let restricted = Lts.restrict lts ~remove:(String.equal "drop") in
  Alcotest.(check int) "restrict removes" 1 (Lts.num_transitions restricted)

(* ------------------------------------------------------------------ *)
(* Strong bisimulation *)

let test_strong_bisim_basic () =
  let a = lts_of (pre "a" (pre "b" Term.stop)) in
  let b = lts_of (pre "a" (pre "b" Term.stop)) in
  Alcotest.(check bool) "identical terms" true (Bisim.strong_equivalent a b);
  let c = lts_of (pre "a" (pre "c" Term.stop)) in
  Alcotest.(check bool) "different actions" false (Bisim.strong_equivalent a c)

let test_strong_bisim_distributivity () =
  (* a.(b + c) is NOT strongly bisimilar to a.b + a.c *)
  let lhs = lts_of (pre "a" (Term.choice [ pre "b" Term.stop; pre "c" Term.stop ])) in
  let rhs = lts_of (Term.choice [ pre "a" (pre "b" Term.stop); pre "a" (pre "c" Term.stop) ]) in
  Alcotest.(check bool) "moment of choice matters" false (Bisim.strong_equivalent lhs rhs)

let test_strong_bisim_duplicate_branch () =
  (* a.b + a.b ~ a.b *)
  let dup = lts_of (Term.choice [ pre "a" (pre "b" Term.stop); pre "a" (pre "b" Term.stop) ]) in
  let single = lts_of (pre "a" (pre "b" Term.stop)) in
  Alcotest.(check bool) "idempotent choice" true (Bisim.strong_equivalent dup single)

let test_minimize_strong () =
  let dup =
    lts_of
      (Term.choice
         [ pre "a" (pre "b" Term.stop); pre "a" (pre "b" Term.stop) ])
  in
  let m = Bisim.minimize_strong dup in
  Alcotest.(check int) "collapsed to 3 states" 3 m.Lts.num_states

(* ------------------------------------------------------------------ *)
(* Weak bisimulation *)

let tau k = Term.prefix Term.tau r k

let test_weak_tau_laws () =
  (* a.tau.b ~~ a.b (Milner's first tau law). *)
  let padded = lts_of (pre "a" (tau (pre "b" Term.stop))) in
  let plain = lts_of (pre "a" (pre "b" Term.stop)) in
  Alcotest.(check bool) "a.tau.b ~~ a.b" true (Bisim.weak_equivalent padded plain);
  Alcotest.(check bool) "not strongly" false (Bisim.strong_equivalent padded plain)

let test_weak_preserved_by_more_padding () =
  let p1 = lts_of (tau (tau (pre "a" Term.stop))) in
  let p2 = lts_of (pre "a" Term.stop) in
  Alcotest.(check bool) "tau.tau.a ~~ a" true (Bisim.weak_equivalent p1 p2)

let test_weak_preempting_tau_not_equivalent () =
  (* a + tau.b is NOT weakly bisimilar to a + b: the left can silently
     discard the a-option. *)
  let lhs = lts_of (Term.choice [ pre "a" Term.stop; tau (pre "b" Term.stop) ]) in
  let rhs = lts_of (Term.choice [ pre "a" Term.stop; pre "b" Term.stop ]) in
  Alcotest.(check bool) "preempting tau observable" false (Bisim.weak_equivalent lhs rhs)

let test_weak_tau_cycle_collapse () =
  (* Two states on a tau cycle, one of which offers a: weakly equal to a
     single a-state wrapped in taus. *)
  let defs =
    [
      ("P", Term.choice [ tau (Term.call "Q") ]);
      ("Q", Term.choice [ tau (Term.call "P"); pre "a" Term.stop ]);
    ]
  in
  let cyc = Lts.of_spec (Term.spec ~defs ~init:(Term.call "P")) in
  let simple =
    Lts.of_spec
      (Term.spec
         ~defs:[ ("R", Term.choice [ tau (Term.call "R"); pre "a" Term.stop ]) ]
         ~init:(Term.call "R"))
  in
  Alcotest.(check bool) "cycle collapses" true (Bisim.weak_equivalent cyc simple)

let test_strong_implies_weak () =
  let a = lts_of (pre "a" (pre "b" Term.stop)) in
  let b = lts_of (pre "a" (pre "b" Term.stop)) in
  Alcotest.(check bool) "strong pair also weak" true (Bisim.weak_equivalent a b)

let test_saturate_shape () =
  let lts = lts_of (tau (pre "a" (tau Term.stop))) in
  let sat = Tau.saturate lts in
  (* init =a=> final through the taus, and =tau=> itself reflexively. *)
  Alcotest.(check bool) "weak a from init" true
    (List.exists
       (fun (tr : Lts_fixture.transition) -> tr.label = obs "a")
       (Lts_fixture.transitions_of sat sat.Lts.init));
  Alcotest.(check bool) "reflexive tau" true
    (List.exists
       (fun (tr : Lts_fixture.transition) ->
         tr.label = Lts.tau && tr.target = sat.Lts.init)
       (Lts_fixture.transitions_of sat sat.Lts.init))

(* ------------------------------------------------------------------ *)
(* Markovian lumping *)

let test_markovian_partition_lumps () =
  (* Two a-branches exp(1) each to bisimilar continuations lump with a
     single exp(2): signatures accumulate rates. *)
  let split =
    lts_of
      (Term.choice
         [
           Term.prefix "a" (Rate.exp 1.0) (pre "b" Term.stop);
           Term.prefix "a" (Rate.exp 1.0) (pre "b" Term.stop);
         ])
  in
  let merged = lts_of (Term.prefix "a" (Rate.exp 2.0) (pre "b" Term.stop)) in
  let union, ia, ib = Lts.disjoint_union split merged in
  let block = Bisim.markovian_partition union in
  Alcotest.(check bool) "lumped" true (block.(ia) = block.(ib));
  (* But exp(1) is not lumpable with exp(2). *)
  let slow = lts_of (Term.prefix "a" (Rate.exp 1.0) (pre "b" Term.stop)) in
  let union2, ia2, ib2 = Lts.disjoint_union slow merged in
  let block2 = Bisim.markovian_partition union2 in
  Alcotest.(check bool) "rates distinguish" false (block2.(ia2) = block2.(ib2))

let test_quotient_by_representative_keeps_rates () =
  (* Two parallel exp(1) a-edges into the same class: the lumped chain must
     keep both edges (cumulative rate 2), which plain [quotient] would
     merge into one. *)
  let split =
    lts_of
      (Term.choice
         [
           Term.prefix "a" (Rate.exp 1.0) (pre "b" Term.stop);
           Term.prefix "a" (Rate.exp 1.0) (pre "b" Term.stop);
         ])
  in
  let block = Bisim.markovian_partition split in
  let lumped = Lts.quotient_by_representative split block in
  let total_a_rate =
    Lts_fixture.transitions_of lumped lumped.Lts.init
    |> List.fold_left
         (fun acc (tr : Lts_fixture.transition) ->
           match tr.rate with
           | Some (Rate.Exp l) when tr.label = obs "a" ->
               acc +. l
           | _ -> acc)
         0.0
  in
  Alcotest.(check (float 1e-12)) "cumulative rate" 2.0 total_a_rate;
  (* The builder already shares the identical continuations, so the lumped
     chain has the same three states — but the parallel edges survive,
     which plain [quotient] would have collapsed to rate 1. *)
  Alcotest.(check int) "three states" 3 lumped.Lts.num_states;
  let plain = Lts.quotient split block in
  Alcotest.(check int) "plain quotient drops a parallel edge" 1
    (List.length
       (List.filter
          (fun (tr : Lts_fixture.transition) -> tr.label = obs "a")
          (Lts_fixture.transitions_of plain plain.Lts.init)))

(* ------------------------------------------------------------------ *)
(* HML *)

let test_hml_sat () =
  let lts = lts_of (pre "a" (pre "b" Term.stop)) in
  let f = Hml.diamond (obs "a") (Hml.diamond (obs "b") Hml.True) in
  Alcotest.(check bool) "<a><b>T" true (Hml.sat lts lts.Lts.init f);
  let g = Hml.diamond (obs "b") Hml.True in
  Alcotest.(check bool) "<b>T fails" false (Hml.sat lts lts.Lts.init g);
  Alcotest.(check bool) "negation" true (Hml.sat lts lts.Lts.init (Hml.neg g))

let test_hml_conj_flattening () =
  let f = Hml.conj [ Hml.True; Hml.conj [ Hml.True ] ] in
  Alcotest.(check bool) "all true collapses" true (f = Hml.True);
  let g = Hml.conj [ Hml.diamond (obs "a") Hml.True; Hml.True ] in
  (match g with Hml.Diamond _ -> () | _ -> Alcotest.fail "expected single conjunct")

let has_substring s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let test_hml_pp_twotowers_style () =
  let f = Hml.diamond (obs "x") (Hml.neg (Hml.diamond Lts.tau Hml.True)) in
  let s = Hml.to_string ~weak:true f in
  Alcotest.(check bool) "mentions EXISTS_WEAK_TRANS" true
    (has_substring s "EXISTS_WEAK_TRANS");
  Alcotest.(check bool) "mentions LABEL(x)" true (has_substring s "LABEL(x)");
  Alcotest.(check bool) "strong variant" true
    (has_substring (Hml.to_string ~weak:false f) "EXISTS_TRANS")

let test_hml_size_depth () =
  let f =
    Hml.diamond (obs "a")
      (Hml.conj [ Hml.neg Hml.True; Hml.diamond (obs "b") Hml.True ])
  in
  Alcotest.(check int) "depth" 2 (Hml.depth f);
  Alcotest.(check bool) "size > 3" true (Hml.size f > 3)

(* ------------------------------------------------------------------ *)
(* Distinguishing formulas *)

let check_distinguishes lts s t =
  match Diagnose.distinguishing_formula lts s t with
  | None -> Alcotest.failf "expected a distinguishing formula for %d vs %d" s t
  | Some f ->
      Alcotest.(check bool) "s satisfies" true (Hml.sat lts s f);
      Alcotest.(check bool) "t violates" false (Hml.sat lts t f)

let test_distinguishing_formula_simple () =
  (* union of a.b and a.c: inits distinguishable. *)
  let a = lts_of (pre "a" (pre "b" Term.stop)) in
  let b = lts_of (pre "a" (pre "c" Term.stop)) in
  let union, ia, ib = Lts.disjoint_union a b in
  check_distinguishes union ia ib

let test_distinguishing_formula_none_for_bisimilar () =
  let a = lts_of (pre "a" Term.stop) in
  let b = lts_of (pre "a" Term.stop) in
  let union, ia, ib = Lts.disjoint_union a b in
  Alcotest.(check bool) "bisimilar -> None" true
    (Diagnose.distinguishing_formula union ia ib = None)

let test_distinguishing_formula_negation_case () =
  (* t can do a, s cannot: the formula must be a negation (or diamond from
     the other side) and still hold for s, fail for t. *)
  let s = lts_of Term.stop in
  let t = lts_of (pre "a" Term.stop) in
  let union, is_, it = Lts.disjoint_union s t in
  check_distinguishes union is_ it

(* Weak distinguishing formula of two initial states: the product check,
   then the trail's diagnostics; [None] iff weakly equivalent. *)
let weak_distinguishing_formula a b =
  match Bisim.weak_front_check (Bisim.product_front a b) with
  | Bisim.Product_secure _ -> None
  | Bisim.Product_insecure trail -> Some (Diagnose.of_product_trail trail)

let test_weak_distinguishing_formula () =
  let lhs = lts_of (Term.choice [ pre "a" Term.stop; tau (pre "b" Term.stop) ]) in
  let rhs = lts_of (Term.choice [ pre "a" Term.stop; pre "b" Term.stop ]) in
  match weak_distinguishing_formula lhs rhs with
  | None -> Alcotest.fail "expected weak distinguishing formula"
  | Some f ->
      let union, ia, ib = Lts.disjoint_union lhs rhs in
      let sat = Tau.saturate union in
      Alcotest.(check bool) "holds on one side only" true
        (Hml.sat sat ia f <> Hml.sat sat ib f)

(* ------------------------------------------------------------------ *)
(* Property-based: random LTSs                                          *)

let gen_lts =
  (* Random LTS over labels {a, b, tau} with up to 8 states. *)
  QCheck.Gen.(
    int_range 1 8 >>= fun n ->
    list_size (int_range 0 16)
      (triple (int_range 0 (n - 1))
         (oneofl [ Lts.tau; obs "a"; obs "b" ])
         (int_range 0 (n - 1)))
    >>= fun edges -> return (mk_lts n edges))

let arb_lts = QCheck.make ~print:(fun l -> Format.asprintf "%a" Lts.pp_stats l) gen_lts

let prop_partition_is_consistent =
  QCheck.Test.make ~count:200 ~name:"strong partition: blocks have equal signatures"
    arb_lts
    (fun lts ->
      let block = Bisim.strong_partition lts in
      let signature s =
        Lts_fixture.transitions_of lts s
        |> List.map (fun (tr : Lts_fixture.transition) ->
               (tr.label, block.(tr.target)))
        |> List.sort_uniq compare
      in
      let ok = ref true in
      for s = 0 to lts.Lts.num_states - 1 do
        for t = 0 to lts.Lts.num_states - 1 do
          if block.(s) = block.(t) && signature s <> signature t then ok := false
        done
      done;
      !ok)

let prop_minimize_preserves_strong =
  QCheck.Test.make ~count:200 ~name:"minimization is strongly equivalent to original"
    arb_lts
    (fun lts -> Bisim.strong_equivalent lts (Bisim.minimize_strong lts))

let prop_minimize_weak_preserves_weak =
  QCheck.Test.make ~count:200 ~name:"weak minimization is weakly equivalent to original"
    arb_lts
    (fun lts -> Bisim.weak_equivalent lts (Bisim.minimize_weak lts))

let prop_weak_coarser_than_strong =
  QCheck.Test.make ~count:200 ~name:"strongly equivalent states are weakly equivalent"
    arb_lts
    (fun lts ->
      let strong = Bisim.strong_partition lts in
      let weak = Bisim.weak_partition lts in
      let ok = ref true in
      for s = 0 to lts.Lts.num_states - 1 do
        for t = 0 to lts.Lts.num_states - 1 do
          if strong.(s) = strong.(t) && weak.(s) <> weak.(t) then ok := false
        done
      done;
      !ok)

let prop_distinguishing_formula_sound =
  QCheck.Test.make ~count:200
    ~name:"distinguishing formula is satisfied by exactly one side"
    (QCheck.pair arb_lts arb_lts)
    (fun (a, b) ->
      let union, ia, ib = Lts.disjoint_union a b in
      match Diagnose.distinguishing_formula union ia ib with
      | None -> Bisim.strong_equivalent a b
      | Some f -> Hml.sat union ia f && not (Hml.sat union ib f))

let prop_weak_formula_sound =
  QCheck.Test.make ~count:100
    ~name:"weak distinguishing formula is sound on the saturated union"
    (QCheck.pair arb_lts arb_lts)
    (fun (a, b) ->
      match weak_distinguishing_formula a b with
      | None -> Bisim.weak_equivalent a b
      | Some f ->
          let union, ia, ib = Lts.disjoint_union a b in
          let sat = Tau.saturate union in
          Hml.sat sat ia f && not (Hml.sat sat ib f))

let prop_saturate_idempotent =
  QCheck.Test.make ~count:200 ~name:"saturation is idempotent"
    arb_lts
    (fun lts ->
      let sat = Tau.saturate lts in
      let sat2 = Tau.saturate sat in
      (* Re-saturating adds no transition: the weak closure is a fixed
         point, not merely an equivalent system. *)
      Lts.num_transitions sat2 = Lts.num_transitions sat
      && Bisim.strong_equivalent sat2 sat)

let prop_weak_equivalent_symmetric =
  QCheck.Test.make ~count:200 ~name:"weak equivalence is symmetric"
    (QCheck.pair arb_lts arb_lts)
    (fun (a, b) -> Bisim.weak_equivalent a b = Bisim.weak_equivalent b a)

let prop_product_check_agrees =
  QCheck.Test.make ~count:200
    ~name:"product refiner verdict agrees with weak_equivalent"
    (QCheck.pair arb_lts arb_lts)
    (fun (a, b) ->
      let secure =
        match Bisim.weak_front_check (Bisim.product_front a b) with
        | Bisim.Product_secure _ -> true
        | Bisim.Product_insecure _ -> false
      in
      secure = Bisim.weak_equivalent a b)

(* The branching and trace fronts refine per-side reduced sides (strong
   quotient, tau-SCC collapse); the generator's random tau edges make
   tau-cycles common, so these pin that the reduction keeps verdicts. *)
let prop_branching_product_agrees =
  QCheck.Test.make ~count:200
    ~name:"branching product verdict agrees with branching_equivalent"
    (QCheck.pair arb_lts arb_lts)
    (fun (a, b) ->
      Bisim.branching_front_secure (Bisim.product_front a b)
      = Bisim.branching_equivalent a b)

let prop_trace_product_agrees =
  QCheck.Test.make ~count:200
    ~name:"trace product verdict agrees with trace_equivalent"
    (QCheck.pair arb_lts arb_lts)
    (fun (a, b) ->
      Bisim.trace_front_secure (Bisim.product_front a b)
      = Bisim.trace_equivalent a b)

let qtests =
  [
    prop_partition_is_consistent;
    prop_minimize_preserves_strong;
    prop_minimize_weak_preserves_weak;
    prop_weak_coarser_than_strong;
    prop_distinguishing_formula_sound;
    prop_weak_formula_sound;
    prop_saturate_idempotent;
    prop_weak_equivalent_symmetric;
    prop_product_check_agrees;
    prop_branching_product_agrees;
    prop_trace_product_agrees;
  ]

let suite =
  [
    Alcotest.test_case "of_spec counts" `Quick test_of_spec_counts;
    Alcotest.test_case "of_spec sharing" `Quick test_of_spec_sharing;
    Alcotest.test_case "of_spec max states" `Quick test_of_spec_max_states;
    Alcotest.test_case "labels / enabled" `Quick test_labels_and_enabled;
    Alcotest.test_case "deadlock states" `Quick test_deadlock_states;
    Alcotest.test_case "reachable_from" `Quick test_reachable_from;
    Alcotest.test_case "quotient" `Quick test_quotient;
    Alcotest.test_case "hide / restrict" `Quick test_map_labels_hide_restrict;
    Alcotest.test_case "strong bisim basic" `Quick test_strong_bisim_basic;
    Alcotest.test_case "strong: choice moment" `Quick test_strong_bisim_distributivity;
    Alcotest.test_case "strong: idempotent choice" `Quick test_strong_bisim_duplicate_branch;
    Alcotest.test_case "minimize strong" `Quick test_minimize_strong;
    Alcotest.test_case "weak tau laws" `Quick test_weak_tau_laws;
    Alcotest.test_case "weak padding" `Quick test_weak_preserved_by_more_padding;
    Alcotest.test_case "weak preempting tau" `Quick test_weak_preempting_tau_not_equivalent;
    Alcotest.test_case "weak tau-cycle collapse" `Quick test_weak_tau_cycle_collapse;
    Alcotest.test_case "strong implies weak" `Quick test_strong_implies_weak;
    Alcotest.test_case "saturation shape" `Quick test_saturate_shape;
    Alcotest.test_case "markovian lumping" `Quick test_markovian_partition_lumps;
    Alcotest.test_case "representative quotient rates" `Quick
      test_quotient_by_representative_keeps_rates;
    Alcotest.test_case "hml sat" `Quick test_hml_sat;
    Alcotest.test_case "hml conj flattening" `Quick test_hml_conj_flattening;
    Alcotest.test_case "hml TwoTowers rendering" `Quick test_hml_pp_twotowers_style;
    Alcotest.test_case "hml size/depth" `Quick test_hml_size_depth;
    Alcotest.test_case "distinguishing formula simple" `Quick test_distinguishing_formula_simple;
    Alcotest.test_case "no formula for bisimilar" `Quick test_distinguishing_formula_none_for_bisimilar;
    Alcotest.test_case "distinguishing formula negation" `Quick test_distinguishing_formula_negation_case;
    Alcotest.test_case "weak distinguishing formula" `Quick test_weak_distinguishing_formula;
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) qtests

(* ------------------------------------------------------------------ *)
(* Branching bisimulation                                               *)

let test_branching_tau_laws () =
  (* Inert taus are branching-inert: a.tau.b ~br a.b. *)
  let padded = lts_of (pre "a" (tau (pre "b" Term.stop))) in
  let plain = lts_of (pre "a" (pre "b" Term.stop)) in
  Alcotest.(check bool) "a.tau.b ~br a.b" true
    (Bisim.branching_equivalent padded plain)

let test_branching_finer_than_weak () =
  (* The classic separating pair: A = a.(b + tau.c) and B = A + a.c are
     weakly bisimilar but NOT branching bisimilar. *)
  let a_term =
    pre "a" (Term.choice [ pre "b" Term.stop; tau (pre "c" Term.stop) ])
  in
  let lhs = lts_of a_term in
  let rhs = lts_of (Term.choice [ a_term; pre "a" (pre "c" Term.stop) ]) in
  Alcotest.(check bool) "weakly bisimilar" true (Bisim.weak_equivalent lhs rhs);
  Alcotest.(check bool) "not branching bisimilar" false
    (Bisim.branching_equivalent lhs rhs)

let test_branching_distinguishes_preempting_tau () =
  let lhs = lts_of (Term.choice [ pre "a" Term.stop; tau (pre "b" Term.stop) ]) in
  let rhs = lts_of (Term.choice [ pre "a" Term.stop; pre "b" Term.stop ]) in
  Alcotest.(check bool) "branching distinguishes" false
    (Bisim.branching_equivalent lhs rhs)

let prop_branching_implies_weak =
  QCheck.Test.make ~count:200 ~name:"branching equivalence implies weak equivalence"
    (QCheck.pair arb_lts arb_lts)
    (fun (a, b) ->
      (not (Bisim.branching_equivalent a b)) || Bisim.weak_equivalent a b)

let prop_strong_implies_branching =
  QCheck.Test.make ~count:200 ~name:"strong equivalence implies branching equivalence"
    (QCheck.pair arb_lts arb_lts)
    (fun (a, b) ->
      (not (Bisim.strong_equivalent a b)) || Bisim.branching_equivalent a b)

let branching_suite =
  [
    Alcotest.test_case "branching tau laws" `Quick test_branching_tau_laws;
    Alcotest.test_case "branching finer than weak" `Quick
      test_branching_finer_than_weak;
    Alcotest.test_case "branching vs preempting tau" `Quick
      test_branching_distinguishes_preempting_tau;
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false)
      [ prop_branching_implies_weak; prop_strong_implies_branching ]

let suite = suite @ branching_suite

(* ------------------------------------------------------------------ *)
(* Determinization and trace equivalence                                *)

let test_determinize_shape () =
  (* a.(b+c) determinizes to a 3-state chain-ish automaton: {0},{b+c},{done}. *)
  let lts = lts_of (pre "a" (Term.choice [ pre "b" Term.stop; pre "c" Term.stop ])) in
  let d = Bisim.determinize lts in
  Alcotest.(check int) "three subset states" 3 d.Lts.num_states;
  (* Deterministic: at most one transition per label per state. *)
  for s = 0 to d.Lts.num_states - 1 do
    let labels =
      List.map
        (fun (tr : Lts_fixture.transition) -> tr.label)
        (Lts_fixture.transitions_of d s)
    in
    Alcotest.(check int) "deterministic" (List.length labels)
      (List.length (List.sort_uniq compare labels))
  done

let test_determinize_label_order () =
  (* Two copies of one nondeterministic LTS with tau steps. The first
     copy's labels are interned in name order, the second's in reverse, so
     their ids sort in opposite orders while their names sort alike. The
     determinized automata must agree state for state and edge for edge. *)
  let fa = obs "det_fwd_a" in
  let fb = obs "det_fwd_b" in
  let fc = obs "det_fwd_c" in
  let rc = obs "det_rev_c" in
  let rb = obs "det_rev_b" in
  let ra = obs "det_rev_a" in
  Alcotest.(check bool) "ids sort in opposite orders" true
    (fa < fb && fb < fc && rc < rb && rb < ra);
  let edges =
    [ (0, Some 0, 1); (0, Some 1, 2); (0, Some 2, 3); (0, Some 0, 2);
      (1, None, 3); (1, Some 2, 0); (2, Some 1, 4); (2, Some 0, 1);
      (3, Some 0, 4); (3, Some 2, 2); (4, Some 1, 0); (4, Some 0, 3) ]
  in
  let copy labels =
    Bisim.determinize
      (mk_lts 5
         (List.map
            (fun (s, l, t) ->
              (s, (match l with None -> Lts.tau | Some i -> labels.(i)), t))
            edges))
  in
  let d1 = copy [| fa; fb; fc |] and d2 = copy [| ra; rb; rc |] in
  let rename l = if l = fa then ra else if l = fb then rb else rc in
  Alcotest.(check bool) "some state has several edges" true
    (Array.exists (fun x -> x > 1)
       (Array.init d1.Lts.num_states (fun s -> d1.Lts.row.(s + 1) - d1.Lts.row.(s))));
  Alcotest.(check int) "init" d1.Lts.init d2.Lts.init;
  Alcotest.(check (array int)) "row" d1.Lts.row d2.Lts.row;
  Alcotest.(check (array int)) "tgt" d1.Lts.tgt d2.Lts.tgt;
  Alcotest.(check (array int)) "labels correspond" (Array.map rename d1.Lts.lab)
    d2.Lts.lab;
  Alcotest.(check (list string)) "subset names"
    (List.init d1.Lts.num_states d1.Lts.state_name)
    (List.init d2.Lts.num_states d2.Lts.state_name)

let test_trace_vs_weak () =
  (* The moment of choice: a.(b+c) and a.b + a.c have equal traces but are
     not weakly bisimilar. *)
  let lhs = lts_of (pre "a" (Term.choice [ pre "b" Term.stop; pre "c" Term.stop ])) in
  let rhs = lts_of (Term.choice [ pre "a" (pre "b" Term.stop); pre "a" (pre "c" Term.stop) ]) in
  Alcotest.(check bool) "trace equivalent" true (Bisim.trace_equivalent lhs rhs);
  Alcotest.(check bool) "not weakly bisimilar" false (Bisim.weak_equivalent lhs rhs)

let test_trace_ignores_tau () =
  let lhs = lts_of (tau (pre "a" (tau Term.stop))) in
  let rhs = lts_of (pre "a" Term.stop) in
  Alcotest.(check bool) "tau invisible to traces" true
    (Bisim.trace_equivalent lhs rhs)

let test_trace_distinguishes_languages () =
  let lhs = lts_of (pre "a" (pre "b" Term.stop)) in
  let rhs = lts_of (pre "a" (pre "c" Term.stop)) in
  Alcotest.(check bool) "different languages" false (Bisim.trace_equivalent lhs rhs)

let prop_weak_implies_trace =
  QCheck.Test.make ~count:150 ~name:"weak equivalence implies trace equivalence"
    (QCheck.pair arb_lts arb_lts)
    (fun (a, b) ->
      (not (Bisim.weak_equivalent a b)) || Bisim.trace_equivalent a b)

let trace_suite =
  [
    Alcotest.test_case "determinize shape" `Quick test_determinize_shape;
    Alcotest.test_case "determinize ignores label ids" `Quick
      test_determinize_label_order;
    Alcotest.test_case "trace vs weak" `Quick test_trace_vs_weak;
    Alcotest.test_case "trace ignores tau" `Quick test_trace_ignores_tau;
    Alcotest.test_case "trace distinguishes languages" `Quick
      test_trace_distinguishes_languages;
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) [ prop_weak_implies_trace ]

let suite = suite @ trace_suite

(* DOT export *)

let test_pp_dot () =
  let lts = lts_of (Term.prefix "a" (Rate.exp 2.0) (pre "b" Term.stop)) in
  let s = Format.asprintf "%a" (fun ppf l -> Lts.pp_dot ppf l) lts in
  Alcotest.(check bool) "digraph header" true (has_substring s "digraph lts");
  Alcotest.(check bool) "edge with rate" true (has_substring s "exp(rate 2)");
  Alcotest.(check bool) "initial doubly circled" true
    (has_substring s "doublecircle");
  (* The rendering limit guards against unreadable graphs. *)
  (try
     ignore (Format.asprintf "%a" (Lts.pp_dot ~max_states:1) lts);
     Alcotest.fail "expected invalid_arg"
   with Invalid_argument _ -> ())

let test_pp_dot_escaping () =
  (* Labels containing quotes AND backslashes must come out with the
     backslash escaped first: x"y\z renders as x\"y\\z, never x\"y\\"z
     or a dangling backslash that eats the closing quote. *)
  let lts = mk_lts 2 [ (0, obs "x\"y\\z", 1) ] in
  let s = Format.asprintf "%a" (fun ppf l -> Lts.pp_dot ppf l) lts in
  Alcotest.(check bool) "escaped quote and backslash" true
    (has_substring s "label=\"x\\\"y\\\\z\"")

let dot_suite =
  [
    Alcotest.test_case "dot export" `Quick test_pp_dot;
    Alcotest.test_case "dot escaping" `Quick test_pp_dot_escaping;
  ]

let suite = suite @ dot_suite
