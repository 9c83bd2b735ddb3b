(* Differential tests of the packed simulator against the string-keyed
   reference engine in sim_oracle.ml: on generated small models and on the
   paper's studies, every segment value must match bit for bit, and so
   must the event count (or the Simulation_error message). *)

module Lts = Dpma_lts.Lts
module Rate = Dpma_pa.Rate
module Sim = Dpma_sim.Sim
module Dist = Dpma_dist.Dist
module Prng = Dpma_util.Prng
module Pipeline = Dpma_core.Pipeline
module General = Dpma_core.General
module Measure = Dpma_measures.Measure
module Gen = QCheck.Gen

(* Interned so that id order (c, a, d, b) differs from name order: the
   packed engine's name-rank tie break must not fall back to ids. *)
let label_pool =
  let c = Lts.obs "oracle.c" in
  let a = Lts.obs "oracle.a" in
  let d = Lts.obs "oracle.d" in
  let b = Lts.obs "oracle.b" in
  [| c; a; d; b; Lts.tau |]

type rate_spec = Exp of float | Imm of int * float | Passive | Unrated

type edge = { src : int; lbl : int; tgt : int; rate : rate_spec }

type case = {
  states : int;
  edges : edge list;
  det : (int * float) list;
      (** label index -> deterministic timing override *)
  boundaries : float list;
  seed : int;
}

let gen_rate =
  Gen.frequency
    [
      (6, Gen.map (fun r -> Exp r) (Gen.oneofl [ 0.5; 1.0; 2.0; 3.0 ]));
      ( 3,
        Gen.map2
          (fun p w -> Imm (p, w))
          (Gen.int_range 0 2)
          (Gen.oneofl [ 1.0; 2.0; 3.5 ]) );
      (1, Gen.oneofl [ Passive; Unrated ]);
    ]

let gen_case =
  let open Gen in
  let* states = int_range 1 6 in
  let gen_edge =
    let* src = int_bound (states - 1) in
    let* lbl = int_bound (Array.length label_pool - 1) in
    let* tgt = int_bound (states - 1) in
    let+ rate = gen_rate in
    { src; lbl; tgt; rate }
  in
  let* edges = list_size (int_range 0 14) gen_edge in
  (* Few distinct constants, so deterministic clocks often tie. *)
  let* det =
    list_size (int_range 0 3)
      (pair (int_bound (Array.length label_pool - 1)) (oneofl [ 1.0; 2.0 ]))
  in
  let* first = float_range 0.5 6.0 in
  let* steps = list_size (int_range 1 2) (float_range 0.5 12.0) in
  let boundaries =
    List.rev
      (List.fold_left (fun acc d -> (List.hd acc +. d) :: acc) [ first ] steps)
  in
  let+ seed = int_bound 1_000_000 in
  { states; edges; det; boundaries; seed }

let print_case c =
  let rate = function
    | Exp r -> Printf.sprintf "exp %g" r
    | Imm (p, w) -> Printf.sprintf "imm prio %d weight %g" p w
    | Passive -> "passive"
    | Unrated -> "unrated"
  in
  Printf.sprintf "states %d, seed %d, boundaries [%s], det [%s]\n%s" c.states
    c.seed
    (String.concat "; " (List.map string_of_float c.boundaries))
    (String.concat "; "
       (List.map
          (fun (l, d) ->
            Printf.sprintf "%s=%g" (Lts.label_name label_pool.(l)) d)
          c.det))
    (String.concat "\n"
       (List.map
          (fun e ->
            Printf.sprintf "  %d -%s-> %d (%s)" e.src
              (Lts.label_name label_pool.(e.lbl))
              e.tgt (rate e.rate))
          c.edges))

let shrink_case c =
  let open QCheck.Iter in
  map (fun edges -> { c with edges }) (QCheck.Shrink.list c.edges)
  <+> map (fun det -> { c with det }) (QCheck.Shrink.list c.det)
  <+> map
        (fun boundaries -> { c with boundaries })
        (filter (fun b -> b <> []) (QCheck.Shrink.list c.boundaries))

let arb_case = QCheck.make ~print:print_case ~shrink:shrink_case gen_case

let lts_of_case c =
  let trans = Array.make c.states [] in
  List.iter
    (fun e ->
      let rate =
        match e.rate with
        | Exp r -> Some (Rate.exp r)
        | Imm (prio, weight) -> Some (Rate.imm ~prio ~weight ())
        | Passive -> Some (Rate.passive ())
        | Unrated -> None
      in
      let tr =
        { Lts_fixture.label = label_pool.(e.lbl); rate; target = e.tgt } in
      trans.(e.src) <- tr :: trans.(e.src))
    (List.rev c.edges);
  Lts_fixture.make ~init:0 ~state_name:string_of_int trans

let timing_of_case c name =
  List.find_map
    (fun (l, d) ->
      if String.equal (Lts.label_name label_pool.(l)) name then
        Some (Sim.Timed (Dist.Deterministic d))
      else None)
    c.det

let reward_of_name name = float_of_int (String.length name mod 4) +. 0.25

let estimands_of_case =
  [
    Sim.Time_average (fun s -> float_of_int ((s * 7) mod 5) *. 0.5);
    Sim.Rate_of reward_of_name;
    Sim.Ratio_of_counts
      ( (fun a -> if a = "oracle.a" || a = "tau" then 1.0 else 0.0),
        fun a -> if a = "oracle.b" then 0.0 else 1.0 );
    Sim.Time_average (fun s -> if s = 0 then 1.0 else 0.0);
  ]

(* Outcome of one engine: per-segment values as bit patterns plus the
   event count, or the simulation error. *)
let outcome engine =
  match engine () with
  | values, events ->
      Ok (Array.map (Array.map Int64.bits_of_float) values, events)
  | exception Sim.Simulation_error msg -> Error msg

let agree ~timing ~lts ~boundaries ~estimands ~seed =
  let packed =
    outcome (fun () ->
        Sim.run_segments ~timing ~lts ~boundaries ~estimands (Prng.create seed))
  in
  let reference =
    outcome (fun () ->
        Sim_oracle.run_segments ~timing ~lts ~boundaries ~estimands
          (Prng.create seed))
  in
  packed = reference

let prop_matches_oracle =
  QCheck.Test.make ~count:400
    ~name:"packed simulator matches the string-keyed oracle bitwise" arb_case
    (fun c ->
      agree ~timing:(timing_of_case c) ~lts:(lts_of_case c)
        ~boundaries:(Array.of_list c.boundaries) ~estimands:estimands_of_case
        ~seed:c.seed)

(* The generator must actually reach the cases the property is about. *)
let test_generator_coverage () =
  let rand = Random.State.make [| 13 |] in
  let cases = Gen.generate ~rand ~n:400 gen_case in
  let count p = List.length (List.filter p cases) in
  let shared_label c =
    List.exists
      (fun e ->
        List.exists
          (fun e' -> e != e' && e.src = e'.src && e.lbl = e'.lbl)
          c.edges)
      c.edges
  in
  let has_deadlock c =
    List.exists
      (fun s -> not (List.exists (fun e -> e.src = s) c.edges))
      (List.init c.states Fun.id)
  in
  List.iter
    (fun (what, n) ->
      Alcotest.(check bool) (Printf.sprintf "%s (%d cases)" what n) true (n > 20))
    [
      ("a label on several edges of one state", count shared_label);
      ("a deadlocked state", count has_deadlock);
      ("two deterministic overrides", count (fun c -> List.length c.det >= 2));
      ( "immediates",
        count (fun c -> List.exists (fun e -> match e.rate with Imm _ -> true | _ -> false) c.edges) );
      ("three segments", count (fun c -> List.length c.boundaries = 3));
    ]

(* The same differential on the paper's general-phase models, with the
   compiled measures and three segments. *)
let test_study_differential study () =
  let lts = Lts.of_spec study.Pipeline.spec in
  let timing = General.timing_of_list study.Pipeline.general_timings in
  let estimands =
    Measure.estimands (Measure.compile_sim lts study.Pipeline.measures)
  in
  List.iter
    (fun seed ->
      Alcotest.(check bool)
        (Printf.sprintf "seed %d" seed)
        true
        (agree ~timing ~lts ~boundaries:[| 500.0; 2_000.0; 4_000.0 |]
           ~estimands ~seed))
    [ 1; 2; 3 ]

let suite =
  [
    Alcotest.test_case "generator coverage" `Quick test_generator_coverage;
    Alcotest.test_case "oracle differential: rpc" `Quick
      (test_study_differential
         (Dpma_models.Rpc.study ~mode:Dpma_models.Rpc.General
            Dpma_models.Rpc.default_params));
    Alcotest.test_case "oracle differential: streaming" `Quick
      (test_study_differential
         (Dpma_models.Streaming.study ~mode:Dpma_models.Streaming.General
            Dpma_models.Streaming.default_params));
    QCheck_alcotest.to_alcotest ~long:false prop_matches_oracle;
  ]
