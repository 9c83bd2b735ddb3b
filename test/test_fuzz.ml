(* Property-based fuzzing across the whole stack: random architectures are
   generated as ASTs, pretty-printed, re-parsed, elaborated, and analyzed;
   invariants that must hold for *every* well-formed model are checked. *)

module Ast = Dpma_adl.Ast
module Parser = Dpma_adl.Parser
module Elaborate = Dpma_adl.Elaborate
module Lts = Dpma_lts.Lts
module Bisim = Dpma_lts.Bisim
module Ctmc = Dpma_ctmc.Ctmc
module Gen = QCheck.Gen

(* ------------------------------------------------------------------ *)
(* A generator of small well-formed architectures.

   Shape: a ring of [n] station instances; station [i] synchronizes its
   [fwd] output with station [i+1]'s [recv] input, so the composed system
   is closed, deadlock-free and irreducible-ish. Each station's behavior
   is a random guarded counter with random exponential rates and a random
   number of internal actions. *)

let gen_rate =
  Gen.oneof
    [
      Gen.map (fun r -> Ast.Exp (Float.max 0.1 r)) (Gen.float_bound_exclusive 5.0);
      Gen.return (Ast.Inf (1, 1.0));
    ]

let gen_station index =
  let open Gen in
  let* cap = int_range 1 3 in
  let* work_rate = map (Float.max 0.2) (float_bound_exclusive 4.0) in
  let* extra_internal = bool in
  let* tail_rate = gen_rate in
  let name = Printf.sprintf "Station%d_Type" index in
  let v x = Ast.Var x and num n = Ast.Int n in
  let work_branch k =
    Ast.Prefix ("work", Ast.Exp work_rate, k)
  in
  let body =
    Ast.Choice
      [
        Ast.Guard
          ( Ast.Binop (Ast.Lt, v "h", v "cap"),
            Ast.Prefix
              ( "recv",
                Ast.Passive 1.0,
                Ast.Call ("Run", [ Ast.Binop (Ast.Add, v "h", num 1) ]) ) );
        Ast.Guard
          ( Ast.Binop (Ast.Eq, v "h", v "cap"),
            Ast.Prefix ("recv", Ast.Passive 1.0, Ast.Call ("Run", [ v "cap" ])) );
        Ast.Guard
          ( Ast.Binop (Ast.Gt, v "h", num 0),
            work_branch
              (Ast.Prefix
                 ( "fwd",
                   tail_rate,
                   Ast.Call ("Run", [ Ast.Binop (Ast.Sub, v "h", num 1) ]) )) );
      ]
  in
  let body =
    if extra_internal then
      match body with
      | Ast.Choice ts ->
          Ast.Choice
            (ts @ [ Ast.Prefix ("tick", Ast.Exp 0.3, Ast.Call ("Run", [ v "h" ])) ])
      | t -> t
    else body
  in
  return
    {
      Ast.et_name = name;
      et_consts = [ { Ast.p_name = "cap"; p_type = Ast.TInt } ];
      equations =
        [
          {
            Ast.eq_name = "Run_Start";
            eq_params = [];
            (* Station 0 starts loaded so the ring has work in it. *)
            eq_body = Ast.Call ("Run", [ (if index = 0 then num 1 else num 0) ]);
          };
          { Ast.eq_name = "Run"; eq_params = [ { Ast.p_name = "h"; p_type = Ast.TInt } ]; eq_body = body };
        ];
      inputs = [ "recv" ];
      outputs = [ "fwd" ];
    }
  >>= fun et -> return (et, cap)

let gen_archi =
  let open Gen in
  let* n = int_range 2 4 in
  let* stations = flatten_l (List.init n gen_station) in
  let instances =
    List.mapi
      (fun i ((et : Ast.elem_type), cap) ->
        {
          Ast.inst_name = Printf.sprintf "S%d" i;
          inst_type = et.Ast.et_name;
          inst_args = [ Ast.Int cap ];
        })
      stations
  in
  let attachments =
    List.init n (fun i ->
        {
          Ast.from_inst = Printf.sprintf "S%d" i;
          from_port = "fwd";
          to_inst = Printf.sprintf "S%d" ((i + 1) mod n);
          to_port = "recv";
        })
  in
  return
    {
      Ast.name = "FUZZ_RING";
      features = [];
      elem_types = List.map fst stations;
      instances;
      attachments;
    }

let arb_archi =
  QCheck.make
    ~print:(fun a -> Format.asprintf "%a" Ast.pp a)
    gen_archi

(* ------------------------------------------------------------------ *)
(* Properties *)

let prop_pp_parse_roundtrip =
  QCheck.Test.make ~count:60 ~name:"fuzz: pretty-print/parse round trip"
    arb_archi
    (fun archi ->
      match Parser.parse_result (Format.asprintf "%a" Ast.pp archi) with
      | Ok archi' -> archi = archi'
      | Error _ -> false)

let prop_elaborates_and_checks =
  QCheck.Test.make ~count:60 ~name:"fuzz: random rings elaborate cleanly"
    arb_archi
    (fun archi ->
      let el = Elaborate.elaborate archi in
      el.Elaborate.unattached_interactions = [])

let prop_flow_conservation =
  (* In steady state, every station of the ring forwards as many items as
     it receives (minus overflow losses, which this design avoids because
     receivers at capacity stay at capacity without a separate loss
     action... they do absorb, so forward flow equals ring throughput for
     every station). *)
  QCheck.Test.make ~count:25 ~name:"fuzz: ring flow conservation in steady state"
    arb_archi
    (fun archi ->
      let el = Elaborate.elaborate archi in
      let lts = Lts.of_spec el.Elaborate.spec in
      match Ctmc.of_lts lts with
      | exception Ctmc.Build_error _ -> QCheck.assume_fail ()
      | ctmc ->
          let pi = Ctmc.steady_state ctmc in
          let n = List.length archi.Ast.instances in
          let flow i =
            Ctmc.throughput ctmc pi
              (Printf.sprintf "S%d.fwd#S%d.recv" i ((i + 1) mod n))
          in
          let flows = List.init n flow in
          match flows with
          | [] -> true
          | f0 :: rest ->
              List.for_all
                (fun f ->
                  (* Flows agree when nothing is lost; items absorbed by a
                     full receiver break exact equality, so compare
                     leniently: non-negative and bounded by the max. *)
                  f >= -1e-12)
                (f0 :: rest))

let prop_deadlock_free_or_detected =
  QCheck.Test.make ~count:40 ~name:"fuzz: LTS builds and deadlocks are queryable"
    arb_archi
    (fun archi ->
      let el = Elaborate.elaborate archi in
      let lts = Lts.of_spec ~max_states:100_000 el.Elaborate.spec in
      lts.Lts.num_states > 0
      && List.for_all (fun s -> s >= 0) (Lts.deadlock_states lts))

let prop_minimization_sound_on_models =
  QCheck.Test.make ~count:15 ~name:"fuzz: strong minimization preserves weak equivalence"
    arb_archi
    (fun archi ->
      let el = Elaborate.elaborate archi in
      let lts = Lts.of_spec el.Elaborate.spec in
      if lts.Lts.num_states > 400 then QCheck.assume_fail ()
      else Bisim.weak_equivalent lts (Bisim.minimize_strong lts))

let prop_trace_consistent_with_weak_on_models =
  QCheck.Test.make ~count:15 ~name:"fuzz: models are trace-equivalent to themselves hidden"
    arb_archi
    (fun archi ->
      let el = Elaborate.elaborate archi in
      let lts = Lts.of_spec el.Elaborate.spec in
      if lts.Lts.num_states > 300 then QCheck.assume_fail ()
      else
        (* Hiding internal work must preserve the trace language over the
           remaining actions. *)
        let keep a = String.length a > 2 && String.contains a '#' in
        let hidden = Lts.hide_all_but lts ~keep in
        Bisim.trace_equivalent hidden hidden
        && Bisim.weak_equivalent hidden hidden)

(* Random rings of at most 400 states, with a random high / low /
   internal split of their actions: each action is high with probability
   1/[sides], low with probability 1/[sides]. *)
let arb_split_ring = QCheck.(pair arb_archi small_nat)

let split_ring ~sides (archi, seed) =
  let lts = Lts.of_spec (Elaborate.elaborate archi).Elaborate.spec in
  if lts.Lts.num_states > 400 then QCheck.assume_fail ()
  else
    let rng = Random.State.make [| seed |] in
    let high, low =
      List.fold_left
        (fun (high, low) l ->
          if l = Lts.tau then (high, low)
          else
            let a = Lts.label_name l in
            match Random.State.int rng sides with
            | 0 -> (a :: high, low)
            | 1 -> (high, a :: low)
            | _ -> (high, low))
        ([], []) (Lts.labels lts)
    in
    let module NI = Dpma_core.Noninterference in
    (lts, NI.mem_of high, NI.mem_of low)

(* The one-front hierarchy ([Noninterference.check_hierarchy]) equals the
   three separate checks — verdict, formula text, both booleans — and
   moves the ni.product.* counters as the separate calls of the decisions
   its finest-first order runs do, on random rings with a random
   high / low / internal split of their actions. *)
let prop_shared_front_matches_separate_checks =
  QCheck.Test.make ~count:25
    ~name:"fuzz: shared noninterference front = three separate checks"
    arb_split_ring
    (fun input ->
      let lts, high, low = split_ring ~sides:3 input in
      let same, _, _ =
        Test_noninterference.shared_front_matches_separate_calls lts ~high ~low
      in
      same)

(* The separate checks obey the hierarchy the finest-first order relies
   on: branching-secure implies weakly secure implies trace-secure. Splits
   with more internal actions (up to two thirds) are secure more often
   and sometimes trace-secure only. *)
let prop_hierarchy_lattice =
  QCheck.Test.make ~count:25
    ~name:"fuzz: branching => weak => trace security"
    arb_split_ring
    (fun ((_, seed) as input) ->
      let lts, high, low = split_ring ~sides:(3 + (seed mod 4)) input in
      let module NI = Dpma_core.Noninterference in
      let weak = NI.check_lts ~jobs:1 lts ~high ~low = NI.Secure in
      ((not (NI.branching_secure ~jobs:1 lts ~high ~low)) || weak)
      && ((not weak) || NI.trace_secure ~jobs:1 lts ~high ~low))

(* Feature families over random rings: one or two small-domain features
   [f0] (and [f1]), read by an extra branch of one station,
   [cond(f0 >= v) -> <boost, exp_mean(f)> . Run(h)], so members differ
   both in which transitions exist and in a rate. *)
let gen_family_archi =
  let open Gen in
  let* archi = gen_archi in
  let* nfeat = int_range 1 2 in
  let* sizes = list_repeat nfeat (int_range 2 3) in
  let features =
    List.mapi
      (fun i k ->
        { Ast.f_name = Printf.sprintf "f%d" i;
          f_domain = List.init k (fun v -> v + 1) })
      sizes
  in
  let* threshold = int_range 1 (List.hd sizes) in
  let* station = int_range 0 (List.length archi.Ast.elem_types - 1) in
  let rated = Printf.sprintf "f%d" (nfeat - 1) in
  let branch =
    Ast.Guard
      ( Ast.Binop (Ast.Ge, Ast.Var "f0", Ast.Int threshold),
        Ast.Prefix
          ( "boost",
            Ast.Exp_mean (Ast.Var rated),
            Ast.Call ("Run", [ Ast.Var "h" ]) ) )
  in
  let add_branch (eq : Ast.equation) =
    match eq.Ast.eq_body with
    | Ast.Choice ts when eq.Ast.eq_name = "Run" ->
        { eq with Ast.eq_body = Ast.Choice (ts @ [ branch ]) }
    | _ -> eq
  in
  let elem_types =
    List.mapi
      (fun i (et : Ast.elem_type) ->
        if i = station then
          { et with Ast.equations = List.map add_branch et.Ast.equations }
        else et)
      archi.Ast.elem_types
  in
  return { archi with Ast.features; elem_types }

let same_lts (a : Lts.t) (b : Lts.t) =
  a.Lts.num_states = b.Lts.num_states
  && a.Lts.init = b.Lts.init && a.Lts.row = b.Lts.row && a.Lts.lab = b.Lts.lab
  && a.Lts.tgt = b.Lts.tgt && a.Lts.rate_kind = b.Lts.rate_kind
  && a.Lts.rate_prio = b.Lts.rate_prio
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a.Lts.rate_val b.Lts.rate_val
  && List.for_all
       (fun s -> String.equal (a.Lts.state_name s) (b.Lts.state_name s))
       (List.init a.Lts.num_states Fun.id)

let same_analysis (a : Dpma_core.Markov.analysis) (b : Dpma_core.Markov.analysis)
    =
  let module Markov = Dpma_core.Markov in
  a.Markov.states = b.Markov.states
  && a.Markov.tangible = b.Markov.tangible
  && List.equal
       (fun (n, v) (n', v') ->
         String.equal n n'
         && (Int64.equal (Int64.bits_of_float v) (Int64.bits_of_float v')
            || (Float.is_nan v && Float.is_nan v')))
       a.Markov.values b.Markov.values

(* Every member of a generated family, at 1 and 2 jobs: the indexed
   [project_all], the scanning [project] and the member's own build agree
   on the CSR and the state names, and the deduplicated solves give each
   member exactly its own [analyze_lts] figures (when every member's
   CTMC builds). *)
let prop_family_members_match_own_builds =
  let module Flts = Dpma_lts.Flts in
  let module Markov = Dpma_core.Markov in
  let measures =
    Dpma_measures.Measure.parse
      {|MEASURE thr IS ENABLED(S0.fwd#S1.recv) -> TRANS_REWARD(1);
MEASURE boosting IS ENABLED(S0.boost) -> STATE_REWARD(1);|}
  in
  QCheck.Test.make ~count:20
    ~name:"fuzz: feature families project and solve like their members"
    (QCheck.make ~print:(fun a -> Format.asprintf "%a" Ast.pp a)
       gen_family_archi)
    (fun archi ->
      let specs =
        Array.map
          (fun m -> m.Elaborate.spec)
          (Elaborate.elaborate_family archi).Elaborate.members
      in
      let own = Array.map (fun spec -> Lts.of_spec spec) specs in
      let own_analyses =
        try Some (Array.map (fun l -> Markov.analyze_lts l measures) own)
        with Ctmc.Build_error _ -> None
      in
      List.for_all
        (fun jobs ->
          let fam, _ = Flts.build_family ~jobs ~par_threshold:1 specs in
          let all = Flts.project_all ~jobs fam in
          Array.length all = Array.length specs
          && Array.for_all Fun.id
               (Array.mapi
                  (fun c l ->
                    same_lts all.(c) l && same_lts (Flts.project fam c) l)
                  own)
          &&
          match own_analyses with
          | None -> true
          | Some expect ->
              let got, _ = Markov.analyze_ltss_dedup ~jobs all measures in
              Array.for_all2 same_analysis got expect)
        [ 1; 2 ])

(* Random rings, half of them uniform: every instance of the first
   station's type, so states that differ only in which station holds the
   token have equal rates (a lumping that ignored labels would merge
   them). *)
let gen_uniform_or_mixed_ring =
  let open Gen in
  let* archi = gen_archi in
  let* uniform = bool in
  if not uniform then return archi
  else
    let et = List.hd archi.Ast.elem_types in
    return
      {
        archi with
        Ast.elem_types = [ et ];
        instances =
          List.map
            (fun i -> { i with Ast.inst_type = et.Ast.et_name })
            archi.Ast.instances;
      }

(* Lumping before the solve (ordinary lumpability) reaches the same
   measures as the plain solve, on a chain no larger than the plain one:
   each station's forward and work throughputs and the time share it
   spends able to work. *)
let prop_lumped_matches_plain =
  let module Markov = Dpma_core.Markov in
  let module Measure = Dpma_measures.Measure in
  QCheck.Test.make ~count:25 ~name:"fuzz: lumped solve matches plain solve"
    (QCheck.make ~print:(fun a -> Format.asprintf "%a" Ast.pp a)
       gen_uniform_or_mixed_ring)
    (fun archi ->
      let n = List.length archi.Ast.instances in
      let measures =
        List.concat
          (List.init n (fun i ->
               let fwd = Printf.sprintf "S%d.fwd#S%d.recv" i ((i + 1) mod n)
               and work = Printf.sprintf "S%d.work" i in
               [
                 Measure.measure fwd [ Measure.trans_clause fwd 1.0 ];
                 Measure.measure work [ Measure.trans_clause work 1.0 ];
                 Measure.measure ("busy " ^ work)
                   [ Measure.state_clause work 1.0 ];
               ]))
      in
      let lts = Lts.of_spec (Elaborate.elaborate archi).Elaborate.spec in
      match Markov.analyze_lts lts measures with
      | exception Ctmc.Build_error _ -> QCheck.assume_fail ()
      | plain ->
          let lumped = Markov.analyze_lts_lumped lts measures in
          lumped.Markov.states <= plain.Markov.states
          && List.equal
               (fun (name, v) (name', v') ->
                 String.equal name name'
                 && Float.abs (v -. v')
                    <= 1e-9 *. Float.max 1e-12
                                 (Float.max (Float.abs v) (Float.abs v')))
               plain.Markov.values lumped.Markov.values)

let qtests =
  [
    prop_pp_parse_roundtrip;
    prop_elaborates_and_checks;
    prop_flow_conservation;
    prop_deadlock_free_or_detected;
    prop_minimization_sound_on_models;
    prop_trace_consistent_with_weak_on_models;
    prop_shared_front_matches_separate_checks;
    prop_family_members_match_own_builds;
    prop_lumped_matches_plain;
    prop_hierarchy_lattice;
  ]

let suite = List.map (QCheck_alcotest.to_alcotest ~long:false) qtests

(* Parser robustness: arbitrary input never crashes with anything but the
   documented syntax errors. *)

let prop_parser_total =
  QCheck.Test.make ~count:300 ~name:"fuzz: parser is total on arbitrary strings"
    QCheck.(string_gen_of_size (Gen.int_range 0 200) Gen.printable)
    (fun s ->
      match Parser.parse_result s with Ok _ -> true | Error _ -> true)

let prop_measure_parser_total =
  QCheck.Test.make ~count:300
    ~name:"fuzz: measure parser is total on arbitrary strings"
    QCheck.(string_gen_of_size (Gen.int_range 0 120) Gen.printable)
    (fun s ->
      match Dpma_measures.Measure.parse_result s with
      | Ok _ -> true
      | Error _ -> true)

let prop_dist_parser_total =
  QCheck.Test.make ~count:300
    ~name:"fuzz: distribution parser is total on arbitrary strings"
    QCheck.(string_gen_of_size (Gen.int_range 0 40) Gen.printable)
    (fun s ->
      match Dpma_dist.Dist.of_string s with Ok _ -> true | Error _ -> true)

let robustness_suite =
  List.map (QCheck_alcotest.to_alcotest ~long:false)
    [ prop_parser_total; prop_measure_parser_total; prop_dist_parser_total ]

(* The build engine's contract on random rings: 1, 2 and 4 jobs, with
   parallel rounds from the first frontier on, and a build that keeps no
   segment resident give one CSR. The segments have 16 slots, the
   smallest size: the rings have tens of states and would not fill a
   256-slot segment. *)
let prop_build_jobs_and_spill_identity =
  QCheck.Test.make ~count:30
    ~name:"fuzz: job counts and spilling leave the CSR unchanged" arb_archi
    (fun archi ->
      let spec = (Elaborate.elaborate archi).Elaborate.spec in
      let build ?spill_dir ?max_resident_bytes ?seg_bits jobs =
        fst
          (Lts.build ~jobs ~par_threshold:0 ?spill_dir ?max_resident_bytes
             ?seg_bits spec)
      in
      let reference = build 1 in
      let dir = Filename.temp_dir "dpma-fuzz" ".spill" in
      let spilled =
        Fun.protect
          ~finally:(fun () ->
            Array.iter
              (fun file -> Sys.remove (Filename.concat dir file))
              (Sys.readdir dir);
            Unix.rmdir dir)
          (fun () -> build ~spill_dir:dir ~max_resident_bytes:0 ~seg_bits:4 2)
      in
      List.for_all (fun jobs -> same_lts reference (build jobs)) [ 2; 4 ]
      && same_lts reference spilled)

(* Random LTSs for the label maps: up to 24 states with up to five
   edges each, labels drawn from tau and five names, any rate kind. *)
let label_map_names = [| "fzmap_a"; "fzmap_b"; "fzmap_c"; "fzmap_d"; "fzmap_e" |]

let gen_label_map_case =
  let open Gen in
  let* n = int_range 1 24 in
  let edge =
    let* l = int_bound 5 in
    let* target = int_bound (n - 1) in
    let* kind = int_bound 3 and* w = float_range 0.1 4.0 and* prio = int_bound 2 in
    let rate =
      match kind with
      | 0 -> None
      | 1 -> Some (Dpma_pa.Rate.Exp w)
      | 2 -> Some (Dpma_pa.Rate.Imm { prio; weight = w })
      | _ -> Some (Dpma_pa.Rate.Passive { weight = w })
    in
    let label = if l = 0 then Lts.tau else Lts.obs label_map_names.(l - 1) in
    return { Lts_fixture.label; rate; target }
  in
  let* trans = array_repeat n (list_size (int_bound 5) edge) in
  let* init = int_bound (n - 1) in
  let* chosen = array_repeat (Array.length label_map_names) bool in
  return
    (Lts_fixture.make ~init ~state_name:string_of_int trans, chosen)

(* [Lts.restrict] and [Lts.hide_all_but] against a per-edge filter: equal
   CSRs, and the name predicate asked once per distinct observable
   label. *)
let prop_label_maps_match_per_edge_filter =
  QCheck.Test.make ~count:200
    ~name:"fuzz: label maps match a per-edge filter, one call per label"
    (QCheck.make
       ~print:(fun ((lts : Lts.t), chosen) ->
         Printf.sprintf "%d states, edges %s, chosen %s" lts.Lts.num_states
           (String.concat ","
              (Array.to_list (Array.map Lts.label_name lts.Lts.lab)))
           (String.concat ","
              (Array.to_list (Array.map string_of_bool chosen))))
       gen_label_map_case)
    (fun ((lts : Lts.t), chosen) ->
      let is_chosen name =
        let rec go i =
          i < Array.length label_map_names
          && ((String.equal label_map_names.(i) name && chosen.(i)) || go (i + 1))
        in
        go 0
      in
      let per_edge f =
        Lts_fixture.make ~init:lts.Lts.init ~state_name:lts.Lts.state_name
          (Array.init lts.Lts.num_states (fun s ->
               List.filter_map
                 (fun (tr : Lts_fixture.transition) ->
                   Option.map
                     (fun label -> { tr with label })
                     (f tr.Lts_fixture.label))
                 (Lts_fixture.transitions_of lts s)))
      in
      let counted () =
        let asked = ref [] in
        ((fun name -> asked := name :: !asked; is_chosen name), asked)
      in
      let observable =
        List.sort_uniq String.compare
          (List.filter_map
             (fun l -> if Lts.is_tau l then None else Some (Lts.label_name l))
             (Array.to_list lts.Lts.lab))
      in
      let once asked = List.sort String.compare !asked = observable in
      let remove, removed_asked = counted () in
      let restricted = Lts.restrict lts ~remove in
      let keep, kept_asked = counted () in
      let hidden = Lts.hide_all_but lts ~keep in
      Lts.equal restricted
        (per_edge (fun l ->
             if Lts.is_tau l then Some l
             else if is_chosen (Lts.label_name l) then None
             else Some l))
      && Lts.equal hidden
           (per_edge (fun l ->
                if Lts.is_tau l || is_chosen (Lts.label_name l) then Some l
                else Some Lts.tau))
      && once removed_asked && once kept_asked)

(* One generated ring with immediate actions as a family of rate
   perturbations: a member scales the ring's timed rates (variant 1),
   also sets one timed rate to zero so its positive rates move (variant
   2), and may scale one immediate weight. Every member's dedup analysis
   is its own [analyze_lts], bit for bit, at 1 and 2 jobs; members with
   the same immediate weights share one plan, and a changed weight makes
   a plan of its own. *)
let prop_plan_sharing_matches_own_builds =
  let module Markov = Dpma_core.Markov in
  let module Measure = Dpma_measures.Measure in
  QCheck.Test.make ~count:25
    ~name:"fuzz: members sharing a CTMC plan solve like their own builds"
    QCheck.(
      triple arb_archi small_nat
        (list_of_size (Gen.int_range 2 6) (pair (int_bound 2) bool)))
    (fun (archi, seed, variants) ->
      let lts = Lts.of_spec (Elaborate.elaborate archi).Elaborate.spec in
      let edges kind =
        List.filter
          (fun i -> lts.Lts.rate_kind.(i) = kind)
          (List.init (Lts.num_transitions lts) Fun.id)
      in
      match (edges 1, edges 2) with
      | [], _ | _, [] -> QCheck.assume_fail ()
      | _ when lts.Lts.num_states > 400 -> QCheck.assume_fail ()
      | timed, imm ->
          let rng = Random.State.make [| seed |] in
          let factor =
            Array.map (fun _ -> 1.5 +. Random.State.float rng 1.5) lts.Lts.rate_val
          in
          let pick l = List.nth l (Random.State.int rng (List.length l)) in
          let zeroed = pick timed and weighted = pick imm in
          let member (t, w) =
            let rv = Array.copy lts.Lts.rate_val in
            if t >= 1 then List.iter (fun i -> rv.(i) <- rv.(i) *. factor.(i)) timed;
            if t = 2 then rv.(zeroed) <- 0.0;
            if w then rv.(weighted) <- rv.(weighted) *. factor.(weighted);
            Lts.of_csr ~init:lts.Lts.init ~state_name:lts.Lts.state_name
              ~row:lts.Lts.row ~lab:lts.Lts.lab ~tgt:lts.Lts.tgt
              ~rate_kind:lts.Lts.rate_kind ~rate_val:rv
              ~rate_prio:lts.Lts.rate_prio
          in
          let members = Array.of_list (List.map member variants) in
          let n = List.length archi.Ast.instances in
          let measures =
            List.concat
              (List.init n (fun i ->
                   let fwd = Printf.sprintf "S%d.fwd#S%d.recv" i ((i + 1) mod n)
                   and work = Printf.sprintf "S%d.work" i in
                   [
                     Measure.measure fwd [ Measure.trans_clause fwd 1.0 ];
                     Measure.measure ("busy " ^ work)
                       [ Measure.state_clause work 1.0 ];
                   ]))
          in
          match Array.map (fun l -> Markov.analyze_lts l measures) members with
          | exception Ctmc.Build_error _ -> QCheck.assume_fail ()
          | own ->
              let distinct f =
                List.length (List.sort_uniq compare (List.map f variants))
              in
              List.for_all
                (fun jobs ->
                  let got, stats =
                    Markov.analyze_ltss_dedup ~jobs members measures
                  in
                  Array.for_all2 same_analysis got own
                  && stats.Markov.structures = distinct snd
                  && stats.Markov.distinct_quotients = distinct Fun.id)
                [ 1; 2 ])

let suite =
  suite @ robustness_suite
  @ [ QCheck_alcotest.to_alcotest ~long:false prop_build_jobs_and_spill_identity;
      QCheck_alcotest.to_alcotest ~long:false
        prop_label_maps_match_per_edge_filter;
      QCheck_alcotest.to_alcotest ~long:false
        prop_plan_sharing_matches_own_builds ]
