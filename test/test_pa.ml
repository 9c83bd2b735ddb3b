(* Tests for the process algebra kernel: rates, terms, SOS semantics. *)

module Rate = Dpma_pa.Rate
module Term = Dpma_pa.Term
module Semantics = Dpma_pa.Semantics
module Label = Dpma_pa.Label
module Sset = Dpma_pa.Term.Sset

let check_int = Alcotest.(check int)

let hide_names names p = Term.hide (Sset.of_list names) p

let restrict_names names p = Term.restrict (Sset.of_list names) p

(* ------------------------------------------------------------------ *)
(* Rates *)

let test_rate_constructors () =
  Alcotest.check_raises "zero rate" (Invalid_argument "Rate.exp: rate must be positive")
    (fun () -> ignore (Rate.exp 0.0));
  Alcotest.check_raises "zero mean" (Invalid_argument "Rate.exp_mean: mean must be positive")
    (fun () -> ignore (Rate.exp_mean 0.0));
  Alcotest.(check bool) "exp_mean inverts" true
    (Rate.equal (Rate.exp_mean 0.5) (Rate.exp 2.0));
  Alcotest.(check bool) "active" true (Rate.is_active (Rate.exp 1.0));
  Alcotest.(check bool) "imm active" true (Rate.is_active (Rate.imm ()));
  Alcotest.(check bool) "passive" true (Rate.is_passive (Rate.passive ()))

let test_rate_scale () =
  Alcotest.(check bool) "scale exp" true
    (Rate.equal (Rate.scale (Rate.exp 2.0) 0.5) (Rate.exp 1.0));
  Alcotest.(check bool) "scale imm weight" true
    (Rate.equal
       (Rate.scale (Rate.imm ~prio:3 ~weight:2.0 ()) 2.0)
       (Rate.imm ~prio:3 ~weight:4.0 ()))

let test_rate_synchronize () =
  let r =
    Rate.synchronize (Rate.exp 4.0) (Rate.passive ~weight:1.0 ()) ~passive_total:2.0
  in
  Alcotest.(check bool) "active split by weight" true (Rate.equal r (Rate.exp 2.0));
  let p =
    Rate.synchronize (Rate.passive ~weight:2.0 ()) (Rate.passive ~weight:3.0 ())
      ~passive_total:1.0
  in
  Alcotest.(check bool) "passive product" true
    (Rate.equal p (Rate.passive ~weight:6.0 ()));
  Alcotest.check_raises "two actives"
    (Rate.Sync_error "two active participants on a synchronization") (fun () ->
      ignore (Rate.synchronize (Rate.exp 1.0) (Rate.imm ()) ~passive_total:1.0))

(* ------------------------------------------------------------------ *)
(* Terms *)

let a_rate = Rate.exp 1.0

let test_choice_flattening () =
  let p = Term.prefix "a" a_rate Term.stop in
  let q = Term.prefix "b" a_rate Term.stop in
  let nested = Term.choice [ Term.choice [ p; q ]; Term.stop ] in
  match nested.Term.node with
  | Term.Choice [ _; _ ] -> ()
  | _ -> Alcotest.failf "expected flattened 2-way choice, got %s" (Term.to_string nested)

let test_choice_degenerate () =
  Alcotest.(check bool) "empty choice is stop" true
    (Term.equal (Term.choice []) Term.stop);
  let p = Term.prefix "a" a_rate Term.stop in
  Alcotest.(check bool) "singleton collapses" true (Term.equal (Term.choice [ p ]) p)

let test_rename_validation () =
  Alcotest.check_raises "tau source" (Invalid_argument "Term.rename: cannot rename tau")
    (fun () -> ignore (Term.rename [ (Term.tau, "x") ] Term.stop));
  Alcotest.check_raises "tau target"
    (Invalid_argument "Term.rename: cannot rename to tau (use hide)") (fun () ->
      ignore (Term.rename [ ("x", Term.tau) ] Term.stop));
  Alcotest.check_raises "dup source"
    (Invalid_argument "Term.rename: duplicate source action") (fun () ->
      ignore (Term.rename [ ("x", "y"); ("x", "z") ] Term.stop))

let test_hide_restrict_tau_guard () =
  Alcotest.check_raises "hide tau" (Invalid_argument "Term.hide: tau cannot be hide")
    (fun () -> ignore (hide_names [ Term.tau ] Term.stop));
  Alcotest.check_raises "par tau" (Invalid_argument "Term.par: tau cannot be par")
    (fun () -> ignore (Term.par_names Term.stop [ Term.tau ] Term.stop))

let test_action_names () =
  let t =
    Term.par_names
      (Term.prefix "a" a_rate (Term.prefix Term.tau a_rate Term.stop))
      [ "sync" ]
      (hide_names [ "h" ] (Term.prefix "b" a_rate Term.stop))
  in
  let names = Term.action_names t in
  Alcotest.(check (list string)) "names" [ "a"; "b"; "sync" ] (Sset.elements names)

let test_spec_validation () =
  let defs = [ ("P", Term.prefix "a" a_rate (Term.call "P")) ] in
  let spec = Term.spec ~defs ~init:(Term.call "P") in
  Alcotest.(check int) "defs kept" 1 (List.length spec.Term.defs);
  Alcotest.check_raises "undefined constant"
    (Invalid_argument "Term.spec: initial term references undefined constant(s) Q")
    (fun () -> ignore (Term.spec ~defs ~init:(Term.call "Q")));
  Alcotest.check_raises "duplicate definitions"
    (Invalid_argument "Term.spec: duplicate constant definition") (fun () ->
      ignore (Term.spec ~defs:(defs @ defs) ~init:(Term.call "P")))

let test_unguarded_recursion_detected () =
  let defs = [ ("P", Term.choice [ Term.call "P"; Term.prefix "a" a_rate Term.stop ]) ] in
  Alcotest.check_raises "unguarded"
    (Invalid_argument "Term.spec: unguarded recursion through constant P")
    (fun () -> ignore (Term.spec ~defs ~init:(Term.call "P")));
  (* Mutual unguarded recursion. *)
  let defs2 = [ ("P", Term.call "Q"); ("Q", Term.call "P") ] in
  (try
     ignore (Term.spec ~defs:defs2 ~init:(Term.call "P"));
     Alcotest.fail "expected unguarded recursion error"
   with Invalid_argument _ -> ())

(* ------------------------------------------------------------------ *)
(* Semantics *)

(* The semantics yields interned labels; tests compare action names, so
   translate back to strings at the boundary. *)
let trans defs t =
  Semantics.derive (Semantics.make defs) t
  |> List.map (fun (l, r, k) -> (Label.name l, r, k))

let test_prefix_and_choice_transitions () =
  let t =
    Term.choice
      [ Term.prefix "a" a_rate Term.stop; Term.prefix "b" (Rate.exp 2.0) Term.stop ]
  in
  let ts = trans [] t in
  check_int "two transitions" 2 (List.length ts);
  let labels = List.map (fun (a, _, _) -> a) ts |> List.sort compare in
  Alcotest.(check (list string)) "labels" [ "a"; "b" ] labels

let test_call_unfolding () =
  let defs = [ ("P", Term.prefix "a" a_rate (Term.call "P")) ] in
  let ts = trans defs (Term.call "P") in
  check_int "one transition" 1 (List.length ts);
  match ts with
  | [ ("a", _, k) ] -> Alcotest.(check bool) "loops" true (Term.equal k (Term.call "P"))
  | _ -> Alcotest.fail "unexpected transitions"

let test_hiding_relabels_to_tau () =
  let t = hide_names [ "a" ] (Term.prefix "a" a_rate Term.stop) in
  match trans [] t with
  | [ (lbl, _, _) ] -> Alcotest.(check string) "tau" Term.tau lbl
  | _ -> Alcotest.fail "expected one transition"

let test_restriction_blocks () =
  let t =
    restrict_names [ "a" ]
      (Term.choice [ Term.prefix "a" a_rate Term.stop; Term.prefix "b" a_rate Term.stop ])
  in
  let ts = trans [] t in
  check_int "only b" 1 (List.length ts);
  match ts with
  | [ ("b", _, _) ] -> ()
  | _ -> Alcotest.fail "expected b"

let test_renaming_applies () =
  let t = Term.rename [ ("a", "c") ] (Term.prefix "a" a_rate Term.stop) in
  match trans [] t with
  | [ ("c", _, _) ] -> ()
  | _ -> Alcotest.fail "expected renamed transition"

let test_interleaving () =
  let p = Term.prefix "a" a_rate Term.stop in
  let q = Term.prefix "b" a_rate Term.stop in
  let t = Term.par_names p [] q in
  check_int "interleaved" 2 (List.length (trans [] t))

let test_synchronization_requires_both () =
  let p = Term.prefix "s" a_rate Term.stop in
  let t = Term.par_names p [ "s" ] Term.stop in
  check_int "blocked without partner" 0 (List.length (trans [] t))

let test_synchronization_rate () =
  let active = Term.prefix "s" (Rate.exp 4.0) Term.stop in
  let passive =
    Term.choice
      [
        Term.prefix "s" (Rate.passive ~weight:1.0 ()) (Term.prefix "x" a_rate Term.stop);
        Term.prefix "s" (Rate.passive ~weight:3.0 ()) (Term.prefix "y" a_rate Term.stop);
      ]
  in
  let ts = trans [] (Term.par_names active [ "s" ] passive) in
  check_int "two synchronized alternatives" 2 (List.length ts);
  let rate_to after =
    List.find_map
      (fun (_, r, k) ->
        match (k : Term.t).Term.node with
        | Term.Par (_, _, { Term.node = Term.Prefix (x, _, _); _ })
          when String.equal (Label.name x) after ->
            Some r
        | _ -> None)
      ts
    |> Option.get
  in
  (* The exp(4) splits 1:3 over the two passive alternatives. *)
  Alcotest.(check bool) "x gets 1" true (Rate.equal (rate_to "x") (Rate.exp 1.0));
  Alcotest.(check bool) "y gets 3" true (Rate.equal (rate_to "y") (Rate.exp 3.0))

let test_two_actives_error () =
  let p = Term.prefix "s" (Rate.exp 1.0) Term.stop in
  let q = Term.prefix "s" (Rate.exp 1.0) Term.stop in
  (try
     ignore (trans [] (Term.par_names p [ "s" ] q));
     Alcotest.fail "expected Sync_error"
   with Semantics.Sync_error { action; _ } ->
     Alcotest.(check string) "action reported" "s" action)

let test_tau_does_not_synchronize () =
  (* tau cannot be in the sync set, so tau steps interleave freely. *)
  let p = Term.prefix Term.tau a_rate Term.stop in
  let q = Term.prefix Term.tau a_rate Term.stop in
  let ts = trans [] (Term.par_names p [] q) in
  check_int "both tau steps" 2 (List.length ts)

(* Action names (tau excluded) enabled in [t]. *)
let enabled_actions defs t =
  Semantics.derive (Semantics.make defs) t
  |> List.fold_left
       (fun acc (a, _, _) ->
         if Label.equal a Label.tau then acc else Sset.add (Label.name a) acc)
       Sset.empty

let is_deadlocked defs t = Semantics.derive (Semantics.make defs) t = []

let test_enabled_actions_and_deadlock () =
  let t = Term.choice [ Term.prefix "a" a_rate Term.stop; Term.prefix Term.tau a_rate Term.stop ] in
  Alcotest.(check (list string)) "tau excluded" [ "a" ]
    (Sset.elements (enabled_actions [] t));
  Alcotest.(check bool) "stop deadlocked" true (is_deadlocked [] Term.stop);
  Alcotest.(check bool) "prefix alive" false (is_deadlocked [] t)

let test_multiway_composition () =
  (* Three components in a chain: a |[x]| (b |[y]| c). *)
  let left = Term.prefix "x" (Rate.exp 1.0) Term.stop in
  let mid = Term.prefix "x" (Rate.passive ()) (Term.prefix "y" (Rate.exp 1.0) Term.stop) in
  let right = Term.prefix "y" (Rate.passive ()) Term.stop in
  let t = Term.par_names left [ "x" ] (Term.par_names mid [ "y" ] right) in
  let ts = trans [] t in
  check_int "only x initially" 1 (List.length ts);
  match ts with
  | [ ("x", _, k) ] ->
      let ts2 = trans [] k in
      check_int "then y" 1 (List.length ts2);
      Alcotest.(check string) "y" "y" (match ts2 with [ (l, _, _) ] -> l | _ -> "?")
  | _ -> Alcotest.fail "expected x"

let suite =
  [
    Alcotest.test_case "rate constructors" `Quick test_rate_constructors;
    Alcotest.test_case "rate scale" `Quick test_rate_scale;
    Alcotest.test_case "rate synchronize" `Quick test_rate_synchronize;
    Alcotest.test_case "choice flattening" `Quick test_choice_flattening;
    Alcotest.test_case "choice degenerate" `Quick test_choice_degenerate;
    Alcotest.test_case "rename validation" `Quick test_rename_validation;
    Alcotest.test_case "hide/restrict tau guard" `Quick test_hide_restrict_tau_guard;
    Alcotest.test_case "action names" `Quick test_action_names;
    Alcotest.test_case "spec validation" `Quick test_spec_validation;
    Alcotest.test_case "unguarded recursion" `Quick test_unguarded_recursion_detected;
    Alcotest.test_case "prefix/choice transitions" `Quick test_prefix_and_choice_transitions;
    Alcotest.test_case "constant unfolding" `Quick test_call_unfolding;
    Alcotest.test_case "hiding" `Quick test_hiding_relabels_to_tau;
    Alcotest.test_case "restriction" `Quick test_restriction_blocks;
    Alcotest.test_case "renaming" `Quick test_renaming_applies;
    Alcotest.test_case "interleaving" `Quick test_interleaving;
    Alcotest.test_case "sync requires both" `Quick test_synchronization_requires_both;
    Alcotest.test_case "sync rate splitting" `Quick test_synchronization_rate;
    Alcotest.test_case "two actives error" `Quick test_two_actives_error;
    Alcotest.test_case "tau never synchronizes" `Quick test_tau_does_not_synchronize;
    Alcotest.test_case "enabled actions / deadlock" `Quick test_enabled_actions_and_deadlock;
    Alcotest.test_case "multiway composition" `Quick test_multiway_composition;
  ]
