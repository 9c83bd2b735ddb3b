(* Tests for the compiled state-space core: hash-consing invariants,
   label interning round-trips, and a differential test pinning the two
   paper studies to the reference numbers produced by the pre-compiled
   (structural-equality, string-label) engine. *)

module Label = Dpma_pa.Label
module Rate = Dpma_pa.Rate
module Term = Dpma_pa.Term
module Semantics = Dpma_pa.Semantics
module Lts = Dpma_lts.Lts
module NI = Dpma_core.Noninterference
module Markov = Dpma_core.Markov
module General = Dpma_core.General
module Pipeline = Dpma_core.Pipeline

let hide_names names p = Term.hide (Term.Sset.of_list names) p

let restrict_names names p = Term.restrict (Term.Sset.of_list names) p

(* ------------------------------------------------------------------ *)
(* Label interning *)

let test_label_roundtrip () =
  let names = [ "a"; "b"; "C.send#S.recv"; "pm_suspend"; "a" ] in
  List.iter
    (fun n ->
      Alcotest.(check string) "name o intern = id" n (Label.name (Label.intern n)))
    names;
  Alcotest.(check bool) "idempotent" true
    (Label.equal (Label.intern "a") (Label.intern "a"));
  Alcotest.(check bool) "distinct names, distinct ids" false
    (Label.equal (Label.intern "a") (Label.intern "b"))

let test_label_tau () =
  Alcotest.(check int) "tau is id 0" 0 Label.tau;
  Alcotest.(check int) "tau interned as itself" Label.tau (Label.intern "tau");
  Alcotest.(check string) "tau prints" "tau" (Label.name Label.tau)

let test_label_find () =
  Alcotest.(check bool) "interned name found" true
    (Label.find "a" = Some (Label.intern "a"));
  Alcotest.(check bool) "fresh name not found" true
    (Label.find "never-interned-by-any-test" = None);
  Alcotest.check_raises "empty name rejected"
    (Invalid_argument "Label.intern: empty action name") (fun () ->
      ignore (Label.intern ""))

let test_label_count_monotone () =
  let before = Label.count () in
  ignore (Label.intern "label_count_probe");
  let after = Label.count () in
  Alcotest.(check int) "one fresh intern adds one" (before + 1) after;
  ignore (Label.intern "label_count_probe");
  Alcotest.(check int) "re-intern adds none" after (Label.count ())

let test_label_compare_by_name () =
  let l = [ Label.intern "zz"; Label.tau; Label.intern "aa" ] in
  let sorted = List.sort Label.compare_by_name l in
  Alcotest.(check (list string)) "alphabetical by printable name"
    [ "aa"; "tau"; "zz" ]
    (List.map Label.name sorted)

(* ------------------------------------------------------------------ *)
(* Hash-consing *)

let r = Rate.exp 1.0

let test_hashcons_physical_equality () =
  (* Structurally equal construction sequences return the same node. *)
  let mk () =
    Term.par_names
      (Term.prefix "a" r (Term.prefix "b" r Term.stop))
      [ "a" ]
      (hide_names [ "h" ] (Term.choice [ Term.prefix "a" r Term.stop ]))
  in
  let t1 = mk () and t2 = mk () in
  Alcotest.(check bool) "physically equal" true (t1 == t2);
  Alcotest.(check bool) "Term.equal agrees" true (Term.equal t1 t2);
  Alcotest.(check int) "same uid" t1.Term.uid t2.Term.uid

let test_hashcons_distinguishes () =
  let t1 = Term.prefix "a" r Term.stop in
  let t2 = Term.prefix "b" r Term.stop in
  let t3 = Term.prefix "a" (Rate.exp 2.0) Term.stop in
  Alcotest.(check bool) "labels distinguish" false (t1 == t2);
  Alcotest.(check bool) "rates distinguish" false (t1 == t3);
  Alcotest.(check bool) "uids distinct" true (t1.Term.uid <> t2.Term.uid)

let test_hashcons_equal_iff_physical () =
  (* Over a pool of assorted terms: Term.equal a b <=> a == b. *)
  let pool =
    [
      Term.stop;
      Term.prefix "a" r Term.stop;
      Term.prefix "a" r (Term.prefix "a" r Term.stop);
      Term.choice [ Term.prefix "a" r Term.stop; Term.prefix "b" r Term.stop ];
      Term.call "P";
      Term.par_names (Term.call "P") [ "a" ] (Term.call "Q");
      hide_names [ "a" ] (Term.call "P");
      restrict_names [ "a" ] (Term.call "P");
      Term.rename [ ("a", "b") ] (Term.call "P");
      (* Re-built duplicates of the above. *)
      Term.prefix "a" r Term.stop;
      hide_names [ "a" ] (Term.call "P");
    ]
  in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          Alcotest.(check bool)
            "structural equality coincides with physical equality"
            (a == b) (Term.equal a b))
        pool)
    pool

let test_hashcons_count_shares () =
  let before = Term.hashcons_count () in
  let t = Term.prefix "hashcons_probe" r (Term.prefix "hashcons_probe" r Term.stop) in
  let mid = Term.hashcons_count () in
  let t' = Term.prefix "hashcons_probe" r (Term.prefix "hashcons_probe" r Term.stop) in
  Alcotest.(check bool) "shared" true (t == t');
  Alcotest.(check int) "re-building allocates nothing" mid (Term.hashcons_count ());
  Alcotest.(check bool) "first build allocated something" true (mid > before)

(* Derived successors rebuild [Par], [Hide] and [Restrict] nodes around
   their parent's label set, but elaboration may build an equal set as a
   separate block: the sharing table must still return one node. *)
let test_hashcons_equal_label_sets () =
  let a = Label.intern "lset_probe_a" and b = Label.intern "lset_probe_b" in
  let s1 = Term.Lset.of_list [ a; b ] and s2 = Term.Lset.of_list [ b; a ] in
  Alcotest.(check bool) "equal sets in distinct blocks" true
    (Term.Lset.equal s1 s2 && s1 != s2);
  let p = Term.prefix "lset_probe_a" r Term.stop and q = Term.call "Q" in
  Alcotest.(check bool) "par" true
    (Term.par_labels p s1 q == Term.par_labels p s2 q);
  Alcotest.(check bool) "hide" true
    (Term.hide_labels s1 p == Term.hide_labels s2 p);
  Alcotest.(check bool) "restrict" true
    (Term.restrict_labels s1 p == Term.restrict_labels s2 p)

(* ------------------------------------------------------------------ *)
(* SOS memoization *)

let test_sos_memo_hits () =
  (* Interleaving: both product states ask for the same component
     derivative, so the second derivation of the shared child is a hit. *)
  let p = Term.prefix "a" r Term.stop in
  let q = Term.prefix "b" r Term.stop in
  let t = Term.par_names p [] q in
  let engine = Semantics.make [] in
  ignore (Semantics.derive engine t);
  let s1 = Semantics.stats engine in
  ignore (Semantics.derive engine t);
  let s2 = Semantics.stats engine in
  Alcotest.(check int) "second derive is pure hit" (s1.Semantics.misses)
    s2.Semantics.misses;
  Alcotest.(check bool) "hits increased" true (s2.Semantics.hits > s1.Semantics.hits)

(* The explorer's entry derives a state without memoizing the state's
   own transitions (each state is derived once per build), while its
   subterms stay memoized: deriving one state twice through a shard
   gives equal transitions, counts the state as a miss both times and
   answers its components from the shard the second time. *)
let test_derive_in_keeps_no_state () =
  let p = Term.prefix "a" r Term.stop in
  let q = Term.prefix "b" r Term.stop in
  let t = Term.par_names p [] q in
  let sh = Semantics.shard (Semantics.make []) in
  let first = Semantics.derive_in sh t in
  let s1 = Semantics.shard_stats sh in
  let second = Semantics.derive_in sh t in
  let s2 = Semantics.shard_stats sh in
  Alcotest.(check bool) "equal transitions" true
    (List.equal
       (fun (a, ra, ka) (b, rb, kb) -> Label.equal a b && ra = rb && ka == kb)
       first second);
  Alcotest.(check int) "first derivation: the state and its two components"
    3 s1.Semantics.misses;
  Alcotest.(check int) "the state misses again" (s1.Semantics.misses + 1)
    s2.Semantics.misses;
  Alcotest.(check int) "its components hit" (s1.Semantics.hits + 2)
    s2.Semantics.hits

(* The SOS memo counters of one build of each paper study, single
   domain. Not keeping the state derivations must not change them: no
   state term of these models is derived again as a subterm. *)
let test_build_sos_counters () =
  let module M = Dpma_obs.Metrics in
  let module I = Dpma_obs.Instruments in
  let check name (study : Pipeline.study) ~hits ~misses =
    let h0 = M.count I.sos_memo_hits and m0 = M.count I.sos_memo_misses in
    ignore (Lts.build ~jobs:1 study.Pipeline.spec);
    Alcotest.(check int) (name ^ " hits") hits (M.count I.sos_memo_hits - h0);
    Alcotest.(check int) (name ^ " misses") misses
      (M.count I.sos_memo_misses - m0)
  in
  check "rpc" (Dpma_models.Rpc.study Dpma_models.Rpc.default_params)
    ~hits:1814 ~misses:1363;
  check "streaming"
    (Dpma_models.Streaming.study Dpma_models.Streaming.default_params)
    ~hits:51559 ~misses:32610

(* Synchronizations come out in action-name order whatever the label ids:
   through a one-shot derivation, an engine's second (cached) derivation
   of another term on the same set, and a builder shard. *)
let test_sync_name_order () =
  let z = Label.intern "syncord_zulu" and a = Label.intern "syncord_alpha" in
  Alcotest.(check bool) "interned out of name order" true (z < a);
  let side rate k =
    Term.choice
      [ Term.prefix_label z rate (Term.call k);
        Term.prefix_label a rate Term.stop ]
  in
  let passive = Rate.passive () in
  let set = Term.Lset.of_list [ z; a ] in
  let t1 = Term.par_labels (side r "P") set (side passive "Q") in
  let t2 = Term.par_labels (side r "Q") set (side passive "P") in
  let defs = [ ("P", Term.stop); ("Q", Term.stop) ] in
  let names trans = List.map (fun (l, _, _) -> Label.name l) trans in
  let expected = [ "syncord_alpha"; "syncord_zulu" ] in
  Alcotest.(check (list string)) "one-shot" expected
    (names (Semantics.derive (Semantics.make defs) t1));
  let engine = Semantics.make defs in
  Alcotest.(check (list string)) "engine" expected
    (names (Semantics.derive engine t1));
  Alcotest.(check (list string)) "engine, cached order" expected
    (names (Semantics.derive engine t2));
  let sh = Semantics.shard (Semantics.make defs) in
  Alcotest.(check (list string)) "shard" expected
    (names (Semantics.derive_in sh t2))

(* A digest of an LTS's CSR: row offsets, label names, targets, rate
   kinds, rate-value bits and priorities. *)
(* The full and functional state spaces of both paper studies, pinned
   bit for bit (captured from the string-sorting SOS and the polymorphic
   sharing table), at one and two jobs: derivation order, state numbering
   and packed rates must not move. *)
let test_pinned_csr_digests () =
  let check name (study : Pipeline.study) ~full ~functional =
    let fspec = Option.value ~default:study.Pipeline.spec study.functional_spec in
    List.iter
      (fun jobs ->
        let tag what = Printf.sprintf "%s %s (jobs %d)" name what jobs in
        Alcotest.(check string) (tag "full") full
          (Lts_fixture.csr_digest (Lts.of_spec ~jobs study.Pipeline.spec));
        Alcotest.(check string) (tag "functional") functional
          (Lts_fixture.csr_digest (Lts.of_spec ~jobs fspec)))
      [ 1; 2 ]
  in
  check "rpc" (Dpma_models.Rpc.study Dpma_models.Rpc.default_params)
    ~full:"a540542c996214a9b75acd6069bf8222"
    ~functional:"6aacb7ca405c9ba6fd1d71fa171f8eee";
  check "streaming"
    (Dpma_models.Streaming.study Dpma_models.Streaming.default_params)
    ~full:"520658c6a2a84094f3ead014324c3762"
    ~functional:"616e41979897f7ba98045bfcda75c6b9"

(* ------------------------------------------------------------------ *)
(* Differential test: the two paper studies against reference values
   captured from the seed engine (structural equality, string labels,
   list-of-lists LTS). The compiled core must reproduce them exactly:
   same BFS numbering, same verdicts, same solver input order, and
   bit-identical simulation PRNG draw sequences. *)

let count_transitions lts =
  let n = ref 0 in
  for s = 0 to lts.Lts.num_states - 1 do
    n := !n + lts.Lts.row.(s + 1) - lts.Lts.row.(s)
  done;
  !n

let check_counts name lts ~states ~transitions =
  Alcotest.(check int) (name ^ " states") states lts.Lts.num_states;
  Alcotest.(check int) (name ^ " transitions") transitions (count_transitions lts)

(* Markovian reference values, rendered exactly as captured (%.12g). *)
let check_markov name (mk : Markov.analysis) ~states ~values =
  Alcotest.(check int) (name ^ " tangible states") states mk.Markov.states;
  List.iter2
    (fun (em, ev) (m, v) ->
      Alcotest.(check string) (name ^ " measure name") em m;
      Alcotest.(check string)
        (Printf.sprintf "%s %s" name m)
        ev
        (Printf.sprintf "%.12g" v))
    values mk.Markov.values

(* Simulation reference values at %.17g: bit-identical means the PRNG
   consumed random numbers in exactly the seed engine's order. *)
let check_sim name est ~values =
  List.iter2
    (fun (em, emean, ehalf) { General.measure; summary } ->
      Alcotest.(check string) (name ^ " measure name") em measure;
      Alcotest.(check string)
        (Printf.sprintf "%s %s mean" name measure)
        emean
        (Printf.sprintf "%.17g" summary.Dpma_util.Stats.mean);
      Alcotest.(check string)
        (Printf.sprintf "%s %s half-width" name measure)
        ehalf
        (Printf.sprintf "%.17g" summary.Dpma_util.Stats.half_width))
    values est

let sim_params =
  {
    General.runs = 4;
    duration = 2000.0;
    warmup = 200.0;
    confidence = 0.90;
    seed = 42;
    jobs = Some 2;
  }

let secure name verdict =
  match verdict with
  | NI.Secure -> ()
  | NI.Insecure _ -> Alcotest.failf "%s: expected secure verdict" name

let test_differential_rpc () =
  let study = Dpma_models.Rpc.study Dpma_models.Rpc.default_params in
  let functional = Option.value ~default:study.Pipeline.spec study.functional_spec in
  let flts = Lts.of_spec functional in
  let lts = Lts.of_spec study.spec in
  check_counts "rpc functional" flts ~states:546 ~transitions:1711;
  check_counts "rpc full" lts ~states:546 ~transitions:2123;
  secure "rpc" (NI.check_spec functional ~high:study.high ~low:study.low);
  check_markov "rpc markov with"
    (Markov.analyze_lts lts study.measures)
    ~states:546
    ~values:
      [
        ("throughput", "0.0732225874407");
        ("waiting", "0.253448510764");
        ("energy", "0.984868107256");
      ];
  check_markov "rpc markov without"
    (Markov.analyze_lts (Markov.without_dpm lts ~high:study.high) study.measures)
    ~states:546
    ~values:
      [
        ("throughput", "0.0865805950377");
        ("waiting", "0.134331505741");
        ("energy", "1.99377241233");
      ];
  let timing = General.timing_of_list study.general_timings in
  check_sim "rpc sim"
    (General.simulate lts ~timing ~measures:study.measures sim_params)
    ~values:
      [
        ("throughput", "0.068875000000000006", "0.00029337305835945939");
        ("waiting", "0.33400915134383541", "0.001898977197406687");
        ("energy", "1.2882229270656931", "0.0065786594535199201");
      ]

let test_differential_streaming () =
  let study = Dpma_models.Streaming.study Dpma_models.Streaming.default_params in
  let functional = Option.value ~default:study.Pipeline.spec study.functional_spec in
  let flts = Lts.of_spec functional in
  let lts = Lts.of_spec study.spec in
  check_counts "streaming functional" flts ~states:2565 ~transitions:10015;
  check_counts "streaming full" lts ~states:19133 ~transitions:90579;
  secure "streaming" (NI.check_spec functional ~high:study.high ~low:study.low);
  check_markov "streaming markov with"
    (Markov.analyze_lts lts study.measures)
    ~states:19133
    ~values:
      [
        ("energy", "0.389420765453");
        ("frames", "0.0145724094198");
        ("takes", "0.0131488415747");
        ("misses", "0.00177653155962");
        ("sent", "0.0149253731343");
        ("lost_ap", "5.55676039747e-05");
        ("lost_b", "0.00142356784513");
      ];
  check_markov "streaming markov without"
    (Markov.analyze_lts (Markov.without_dpm lts ~high:study.high) study.measures)
    ~states:19133
    ~values:
      [
        ("energy", "1");
        ("frames", "0.0146268656716");
        ("takes", "0.0134273579482");
        ("misses", "0.00149801518608");
        ("sent", "0.0149253731343");
        ("lost_ap", "4.81689897584e-16");
        ("lost_b", "0.00119950772339");
      ];
  let timing = General.timing_of_list study.general_timings in
  check_sim "streaming sim"
    (General.simulate lts ~timing ~measures:study.measures sim_params)
    ~values:
      [
        ("energy", "0.28144374999999988", "0.014213924677515751");
        ("frames", "0.014375000000000001", "0.00029337305835946091");
        ("takes", "0.0115", "0");
        ("misses", "0", "0");
        ("sent", "0.014999999999999999", "0");
        ("lost_ap", "0", "0");
        ("lost_b", "0", "0");
      ]

let suite =
  [
    Alcotest.test_case "label round-trip" `Quick test_label_roundtrip;
    Alcotest.test_case "label tau" `Quick test_label_tau;
    Alcotest.test_case "label find / empty" `Quick test_label_find;
    Alcotest.test_case "label count monotone" `Quick test_label_count_monotone;
    Alcotest.test_case "label compare by name" `Quick test_label_compare_by_name;
    Alcotest.test_case "hashcons physical equality" `Quick
      test_hashcons_physical_equality;
    Alcotest.test_case "hashcons distinguishes" `Quick test_hashcons_distinguishes;
    Alcotest.test_case "hashcons equal iff physical" `Quick
      test_hashcons_equal_iff_physical;
    Alcotest.test_case "hashcons sharing table" `Quick test_hashcons_count_shares;
    Alcotest.test_case "hashcons equal label sets" `Quick
      test_hashcons_equal_label_sets;
    Alcotest.test_case "sos memo hits" `Quick test_sos_memo_hits;
    Alcotest.test_case "derive_in keeps no state derivation" `Quick
      test_derive_in_keeps_no_state;
    Alcotest.test_case "build sos counters" `Slow test_build_sos_counters;
    Alcotest.test_case "sync order by action name" `Quick test_sync_name_order;
    Alcotest.test_case "pinned CSR digests" `Slow test_pinned_csr_digests;
    Alcotest.test_case "differential: rpc" `Slow test_differential_rpc;
    Alcotest.test_case "differential: streaming" `Slow test_differential_streaming;
  ]
