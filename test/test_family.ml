(* Differential tests for the featured-LTS family pipeline: one featured
   build + N projections must be BIT-identical to N independent builds —
   same CSR arrays, same CTMCs, same figures — for any job count. *)

module Lts = Dpma_lts.Lts
module Flts = Dpma_lts.Flts
module Ctmc = Dpma_ctmc.Ctmc
module Markov = Dpma_core.Markov
module Elaborate = Dpma_adl.Elaborate
module Parser = Dpma_adl.Parser
module Measure = Dpma_measures.Measure
module Rpc = Dpma_models.Rpc
module Streaming = Dpma_models.Streaming
module Battery = Dpma_models.Battery

let check_lts_identical name (a : Lts.t) (b : Lts.t) =
  Alcotest.(check int) (name ^ ": num_states") a.Lts.num_states b.Lts.num_states;
  Alcotest.(check int) (name ^ ": init") a.Lts.init b.Lts.init;
  let arr what x y =
    Alcotest.(check (array int)) (name ^ ": " ^ what) x y
  in
  arr "row" a.Lts.row b.Lts.row;
  arr "lab" a.Lts.lab b.Lts.lab;
  arr "tgt" a.Lts.tgt b.Lts.tgt;
  arr "rate_kind" a.Lts.rate_kind b.Lts.rate_kind;
  arr "rate_prio" a.Lts.rate_prio b.Lts.rate_prio;
  Alcotest.(check (array (float 0.0)))
    (name ^ ": rate_val") a.Lts.rate_val b.Lts.rate_val;
  (* State names feed diagnostics and weak-equivalence replays. *)
  for s = 0 to a.Lts.num_states - 1 do
    if a.Lts.state_name s <> b.Lts.state_name s then
      Alcotest.failf "%s: state %d named %s vs %s" name s (a.Lts.state_name s)
        (b.Lts.state_name s)
  done

let check_analysis_identical name (a : Markov.analysis) (b : Markov.analysis) =
  Alcotest.(check int) (name ^ ": states") b.Markov.states a.Markov.states;
  Alcotest.(check int) (name ^ ": tangible") b.Markov.tangible a.Markov.tangible;
  List.iter2
    (fun (n, v) (n', v') ->
      Alcotest.(check string) (name ^ ": measure name") n' n;
      if not
           (Int64.equal (Int64.bits_of_float v) (Int64.bits_of_float v')
           || (Float.is_nan v && Float.is_nan v'))
      then Alcotest.failf "%s measure %s: %.17g vs %.17g" name n v v')
    a.Markov.values b.Markov.values

let check_ctmc_identical name (a : Ctmc.t) (b : Ctmc.t) =
  Alcotest.(check int) (name ^ ": tangible") a.Ctmc.n b.Ctmc.n;
  Alcotest.(check bool)
    (name ^ ": initial") true
    (a.Ctmc.init_state = b.Ctmc.init_state && a.Ctmc.init_prob = b.Ctmc.init_prob);
  Alcotest.(check bool)
    (name ^ ": transitions") true
    (a.Ctmc.row = b.Ctmc.row && a.Ctmc.dst = b.Ctmc.dst
    && a.Ctmc.rate = b.Ctmc.rate && a.Ctmc.lab = b.Ctmc.lab);
  Alcotest.(check bool)
    (name ^ ": immediate_rates") true
    (a.Ctmc.imm_row = b.Ctmc.imm_row && a.Ctmc.imm_lab = b.Ctmc.imm_lab
    && a.Ctmc.imm_rate = b.Ctmc.imm_rate);
  Alcotest.(check bool)
    (name ^ ": enabled_actions") true
    (a.Ctmc.enabled_row = b.Ctmc.enabled_row
    && a.Ctmc.enabled_lab = b.Ctmc.enabled_lab);
  Alcotest.(check bool)
    (name ^ ": exit rates") true
    (a.Ctmc.exit_rate = b.Ctmc.exit_rate)

(* ------------------------------------------------------------------ *)
(* Model families                                                      *)

let rpc_timeouts = [ 1.0; 5.0; 20.0 ]

let rpc_specs () =
  Array.of_list
    (List.map
       (fun t ->
         (Rpc.elaborate ~mode:Rpc.Markovian ~monitors:true
            { Rpc.default_params with shutdown_mean = t })
           .Elaborate.spec)
       rpc_timeouts)

let streaming_params =
  {
    Streaming.default_params with
    ap_buffer_size = 2;
    client_buffer_size = 2;
  }

let streaming_specs () =
  Array.of_list
    (List.map
       (fun a ->
         (Streaming.elaborate ~mode:Streaming.Markovian ~monitors:true
            { streaming_params with awake_period_mean = a })
           .Elaborate.spec)
       [ 10.0; 100.0; 400.0 ])

let test_projection_identity_rpc () =
  let specs = rpc_specs () in
  let fam = fst (Flts.build_family specs) in
  Array.iteri
    (fun c spec ->
      let name = Printf.sprintf "rpc config %d" c in
      check_lts_identical name (Flts.project fam c) (Lts.of_spec spec);
      check_ctmc_identical name (Ctmc.of_lts (Flts.project fam c))
        (Ctmc.of_lts (Lts.of_spec spec)))
    specs

let test_projection_identity_streaming () =
  let specs = streaming_specs () in
  let fam = fst (Flts.build_family specs) in
  Array.iteri
    (fun c spec ->
      let name = Printf.sprintf "streaming config %d" c in
      check_lts_identical name (Flts.project fam c) (Lts.of_spec spec))
    specs

let test_sharing () =
  (* The point of the featured build: the union is much smaller than the
     sum of the members. *)
  let specs = rpc_specs () in
  let fam, stats = Flts.build_family specs in
  let sum =
    Array.fold_left
      (fun acc spec -> acc + (Lts.of_spec spec).Lts.num_states)
      0 specs
  in
  if fam.Flts.num_states * 2 >= sum then
    Alcotest.failf "no sharing: union %d vs summed %d" fam.Flts.num_states sum;
  Alcotest.(check bool) "some guards" true (stats.Flts.guard_count > 1)

let test_jobs_identity () =
  let specs = streaming_specs () in
  let reference, _ = Flts.build_family ~jobs:1 specs in
  List.iter
    (fun jobs ->
      let fam, stats = Flts.build_family ~jobs ~par_threshold:1 specs in
      let name = Printf.sprintf "jobs %d" jobs in
      Alcotest.(check int) (name ^ ": jobs used") jobs stats.Flts.build.Lts.jobs;
      Alcotest.(check int)
        (name ^ ": states") reference.Flts.num_states fam.Flts.num_states;
      Alcotest.(check (array int)) (name ^ ": row") reference.Flts.row fam.Flts.row;
      Alcotest.(check (array int)) (name ^ ": lab") reference.Flts.lab fam.Flts.lab;
      Alcotest.(check (array int)) (name ^ ": tgt") reference.Flts.tgt fam.Flts.tgt;
      Alcotest.(check (array int))
        (name ^ ": guard") reference.Flts.guard fam.Flts.guard;
      Alcotest.(check (array int))
        (name ^ ": init") reference.Flts.init fam.Flts.init)
    [ 1; 2; 4 ]

(* A one-member family is the plain build: the engine runs the same
   exploration with Feature shards, so the CSR arrays and the initial
   state match [Lts.build] and every guard is the full set. *)
let test_one_member_is_plain_build () =
  List.iter
    (fun (name, spec) ->
      let lts = Lts.of_spec spec in
      let fam, _ = Flts.build_family [| spec |] in
      let arr what x y = Alcotest.(check (array int)) (name ^ ": " ^ what) x y in
      Alcotest.(check int) (name ^ ": states") lts.Lts.num_states
        fam.Flts.num_states;
      arr "init" [| lts.Lts.init |] fam.Flts.init;
      arr "row" lts.Lts.row fam.Flts.row;
      arr "lab" lts.Lts.lab fam.Flts.lab;
      arr "tgt" lts.Lts.tgt fam.Flts.tgt;
      arr "rate_kind" lts.Lts.rate_kind fam.Flts.rate_kind;
      arr "rate_prio" lts.Lts.rate_prio fam.Flts.rate_prio;
      Alcotest.(check (array (float 0.0)))
        (name ^ ": rate_val") lts.Lts.rate_val fam.Flts.rate_val;
      arr "guard"
        (Array.make (Lts.num_transitions lts) Flts.Guard.all)
        fam.Flts.guard)
    [ ("rpc",
       (Rpc.elaborate ~mode:Rpc.Markovian ~monitors:true Rpc.default_params)
         .Elaborate.spec);
      ("streaming",
       (Streaming.elaborate ~mode:Streaming.Markovian ~monitors:true
          Streaming.default_params)
         .Elaborate.spec) ]

(* Featured builds feed the shared exploration instruments. *)
let test_family_par_metrics () =
  let module M = Dpma_obs.Metrics in
  let module I = Dpma_obs.Instruments in
  M.set I.lts_par_segment_bytes 0.0;
  let before = M.count I.lts_par_rounds in
  let _, stats = Flts.build_family (rpc_specs ()) in
  Alcotest.(check int) "lts.par.rounds grows by the family's rounds"
    stats.Flts.build.Lts.rounds
    (M.count I.lts_par_rounds - before);
  Alcotest.(check bool) "lts.par.segment_bytes_peak set" true
    (M.value I.lts_par_segment_bytes > 0.0)

let test_figure_identity () =
  (* The sweep values produced through the family path must equal the
     per-config pipeline bit for bit. *)
  let measures = Rpc.measures () in
  let specs = rpc_specs () in
  let family, _ = Option.get (Markov.family ~measures specs).Markov.solved in
  Array.iteri
    (fun c spec ->
      let solo = Markov.analyze spec measures in
      Alcotest.(check bool)
        (Printf.sprintf "figure values, config %d" c)
        true
        (family.(c).Markov.values = solo.Markov.values))
    specs

let test_battery_sweep_identity () =
  let p = { Battery.default_params with capacity = 10 } in
  let timeouts = [ 2.0; 10.0 ] in
  let swept = Battery.lifetime_sweep p ~timeouts in
  List.iter2
    (fun timeout (t, (l : Battery.lifetime)) ->
      Alcotest.(check (float 0.0)) "sweep timeout" timeout t;
      let solo =
        Battery.expected_lifetime
          { p with rpc = { p.rpc with Rpc.shutdown_mean = timeout } }
      in
      Alcotest.(check (float 0.0))
        (Printf.sprintf "lifetime at %g" timeout)
        solo.Battery.with_dpm l.Battery.with_dpm)
    timeouts swept

(* ------------------------------------------------------------------ *)
(* ADL families                                                        *)

let family_aem =
  {|
ARCHI_TYPE Pinger(void)

feature period in {1, 2, 5}
feature burst in {1, 3}

ARCHI_ELEM_TYPES

ELEM_TYPE Ping_Type(const integer limit)
BEHAVIOR
Ping(void; void) = Run(0);
Run(integer n; void) =
choice {
  cond(n < limit * burst) -> <fire, exp_mean(period)> . Run(n + 1),
  cond(n >= limit * burst) -> <rest, exp(1)> . Run(0)
}
INPUT_INTERACTIONS void
OUTPUT_INTERACTIONS void

ARCHI_TOPOLOGY

ARCHI_ELEM_INSTANCES
P : Ping_Type(2)

ARCHI_ATTACHMENTS void

END
|}

let test_adl_family () =
  let archi = Parser.parse family_aem in
  Alcotest.(check int) "features" 2 (List.length archi.Dpma_adl.Ast.features);
  let fam = Elaborate.elaborate_family archi in
  Alcotest.(check int) "members" 6 (Array.length fam.Elaborate.members);
  (* Declaration order, last feature fastest. *)
  Alcotest.(check bool)
    "binding order" true
    (fam.Elaborate.bindings.(0) = [ ("period", 1); ("burst", 1) ]
    && fam.Elaborate.bindings.(1) = [ ("period", 1); ("burst", 3) ]
    && fam.Elaborate.bindings.(5) = [ ("period", 5); ("burst", 3) ]);
  let swept = Elaborate.elaborate_family ~sweep:[ "period" ] archi in
  Alcotest.(check int) "swept members" 3 (Array.length swept.Elaborate.members);
  (* The representative member of [elaborate] is the first binding. *)
  let first = Elaborate.elaborate archi in
  Alcotest.(check bool)
    "first member" true
    (Dpma_pa.Term.equal
       fam.Elaborate.members.(0).Elaborate.spec.Dpma_pa.Term.init
       first.Elaborate.spec.Dpma_pa.Term.init);
  (* Projection identity holds for ADL families too. *)
  let specs =
    Array.map (fun m -> m.Elaborate.spec) fam.Elaborate.members
  in
  let ffam = fst (Flts.build_family specs) in
  Array.iteri
    (fun c spec ->
      check_lts_identical
        (Printf.sprintf "adl config %d" c)
        (Flts.project ffam c) (Lts.of_spec spec))
    specs

let test_adl_family_errors () =
  let no_features = Parser.parse {|
ARCHI_TYPE Solo(void)
ARCHI_ELEM_TYPES
ELEM_TYPE T(void)
BEHAVIOR
B(void; void) = <tick, exp(1)> . B()
INPUT_INTERACTIONS void
OUTPUT_INTERACTIONS void
ARCHI_TOPOLOGY
ARCHI_ELEM_INSTANCES
I : T()
ARCHI_ATTACHMENTS void
END
|} in
  (match Elaborate.elaborate_family no_features with
  | exception Elaborate.Check_error _ -> ()
  | _ -> Alcotest.fail "family without features should be rejected");
  let archi = Parser.parse family_aem in
  (match Elaborate.elaborate_family ~sweep:[ "nope" ] archi with
  | exception Elaborate.Check_error _ -> ()
  | _ -> Alcotest.fail "unknown sweep feature should be rejected")

(* ------------------------------------------------------------------ *)
(* Guard interning                                                     *)

let guard_prop =
  let gen =
    QCheck.Gen.(
      list_size (int_range 0 10) (int_range 0 11)
      >|= fun l -> List.sort_uniq Int.compare l)
  in
  let arb_set = QCheck.make ~print:QCheck.Print.(list int) gen in
  QCheck.Test.make ~count:200
    ~name:"family: guard interning is content-keyed"
    (QCheck.triple arb_set arb_set arb_set)
    (fun (a, b, c) ->
      let tbl = Flts.Guard.create ~nconfigs:12 in
      let ia = Flts.Guard.intern tbl (Array.of_list a) in
      let ib = Flts.Guard.intern tbl (Array.of_list b) in
      let ic = Flts.Guard.intern tbl (Array.of_list c) in
      (* Equal sets share an id, distinct sets do not, and re-interning a
         guard's own content is the identity. *)
      let same x y ix iy = (x = y) = (ix = iy) in
      let ia' = Flts.Guard.intern tbl (Flts.Guard.configs tbl ia) in
      same a b ia ib && same b c ib ic && same a c ia ic && ia = ia'
      && Flts.Guard.configs tbl ic = Array.of_list c)

(* Differential model check for the packed-bitset guard table: random
   subsets at widths below, at, and far past the 63-bit word boundary
   must behave exactly like the sorted-int-set reference semantics —
   intern/configs round-trips, mem on every index, cardinal and
   re-interning. *)
let test_guard_bitset_model () =
  (* Deterministic xorshift so every run exercises the same subsets. *)
  let rand = ref 0x2545F4914F6CDD1D in
  let next () =
    let x = !rand in
    let x = x lxor (x lsl 13) in
    let x = x lxor (x lsr 7) in
    let x = x lxor (x lsl 17) in
    rand := x;
    x land max_int
  in
  List.iter
    (fun nconfigs ->
      let tbl = Flts.Guard.create ~nconfigs in
      Alcotest.(check int)
        (Printf.sprintf "width %d: all cardinal" nconfigs)
        nconfigs
        (Flts.Guard.cardinal tbl Flts.Guard.all);
      let subset () =
        Array.of_list
          (List.filter
             (fun _ -> next () mod 3 = 0)
             (List.init nconfigs (fun c -> c)))
      in
      for _ = 1 to 25 do
        let a = subset () and b = subset () in
        let ga = Flts.Guard.intern tbl a and gb = Flts.Guard.intern tbl b in
        if Flts.Guard.configs tbl ga <> a then
          Alcotest.failf "width %d: configs does not round-trip" nconfigs;
        Alcotest.(check int)
          (Printf.sprintf "width %d: cardinal" nconfigs)
          (Array.length a)
          (Flts.Guard.cardinal tbl ga);
        for c = 0 to nconfigs - 1 do
          if Flts.Guard.mem tbl ga c <> Array.mem c a then
            Alcotest.failf "width %d: mem %d disagrees with the set" nconfigs c
        done;
        (* Interning is content-keyed: the same set, packed again,
           reaches the same id. *)
        Alcotest.(check bool)
          (Printf.sprintf "width %d: re-intern" nconfigs)
          true
          (Flts.Guard.intern tbl (Array.copy a) = ga
          && Flts.Guard.intern tbl b = gb)
      done)
    [ 3; 64; 100; 1024 ]

let test_guard_mem () =
  let tbl = Flts.Guard.create ~nconfigs:4 in
  let g = Flts.Guard.intern tbl [| 1; 3 |] in
  Alcotest.(check bool) "mem 1" true (Flts.Guard.mem tbl g 1);
  Alcotest.(check bool) "mem 2" false (Flts.Guard.mem tbl g 2);
  Alcotest.(check bool) "all mem" true (Flts.Guard.mem tbl Flts.Guard.all 2);
  Alcotest.(check bool)
    "all configs" true
    (Flts.Guard.configs tbl Flts.Guard.all = [| 0; 1; 2; 3 |])

(* ------------------------------------------------------------------ *)
(* Sweep grids and deduplicated solves                                 *)

let grid_aem ~t_max ~a_max =
  Printf.sprintf
    {|ARCHI_TYPE Streaming_Grid(void)

feature dpm in {0, 1}
feature timeout in {1 .. %d}
feature awake in {1 .. %d}

ARCHI_ELEM_TYPES

ELEM_TYPE Source_Type(void)
BEHAVIOR
Source(void; void) =
  <emit_frame, exp(0.5)> . Source()
INPUT_INTERACTIONS void
OUTPUT_INTERACTIONS UNI emit_frame

ELEM_TYPE Buffer_Type(const integer size)
BEHAVIOR
Buffer(void; void) = Hold(0);
Hold(integer h; void) =
  choice {
    cond(h < size) -> <put_frame, _> . Hold(h + 1),
    cond(h > 0) -> <get_frame, _> . Hold(h - 1)
  }
INPUT_INTERACTIONS UNI put_frame; get_frame
OUTPUT_INTERACTIONS void

ELEM_TYPE Client_Type(void)
BEHAVIOR
Playing_Client(void; void) =
  choice {
    <fetch_frame, exp(1.0)> . <decode_frame, exp(8.0)> . Playing_Client(),
    <doze_cmd, _> . Dozing_Client()
  };
Dozing_Client(void; void) =
  <wake_client, exp_mean(timeout)> . Playing_Client()
INPUT_INTERACTIONS UNI doze_cmd
OUTPUT_INTERACTIONS UNI fetch_frame

ELEM_TYPE Dpm_Type(void)
BEHAVIOR
Dpm(void; void) =
  cond(dpm = 1) ->
    <observe_idle, exp_mean(awake)> . <cmd_doze, inf> . Dpm()
INPUT_INTERACTIONS void
OUTPUT_INTERACTIONS UNI cmd_doze

ARCHI_TOPOLOGY

ARCHI_ELEM_INSTANCES
SRC : Source_Type();
BUF : Buffer_Type(2);
CL  : Client_Type();
PM  : Dpm_Type()

ARCHI_ATTACHMENTS
FROM SRC.emit_frame TO BUF.put_frame;
FROM CL.fetch_frame TO BUF.get_frame;
FROM PM.cmd_doze TO CL.doze_cmd

END
|}
    t_max a_max

let grid_measures_src =
  {|MEASURE frame_rate IS
  ENABLED(CL.fetch_frame#BUF.get_frame) -> TRANS_REWARD(1);
MEASURE doze_time IS
  ENABLED(CL.wake_client) -> STATE_REWARD(1);
MEASURE frames_per_doze IS
  ENABLED(CL.fetch_frame#BUF.get_frame) -> TRANS_REWARD(1)
  DIVIDED_BY
  ENABLED(CL.wake_client) -> STATE_REWARD(1);|}

let grid_specs ~t_max ~a_max =
  let fam =
    Elaborate.elaborate_family (Parser.parse (grid_aem ~t_max ~a_max))
  in
  Array.map (fun m -> m.Elaborate.spec) fam.Elaborate.members

let test_adl_feature_ranges () =
  (* Range domains expand inclusively and mix with explicit values. *)
  let archi = Parser.parse (grid_aem ~t_max:5 ~a_max:3) in
  (match archi.Dpma_adl.Ast.features with
  | [ dpm; timeout; awake ] ->
      Alcotest.(check (list int)) "explicit domain" [ 0; 1 ] dpm.Dpma_adl.Ast.f_domain;
      Alcotest.(check (list int))
        "range domain" [ 1; 2; 3; 4; 5 ] timeout.Dpma_adl.Ast.f_domain;
      Alcotest.(check (list int))
        "second range" [ 1; 2; 3 ] awake.Dpma_adl.Ast.f_domain
  | _ -> Alcotest.fail "expected three features");
  (* A descending range is a syntax error, reported with a position. *)
  let bad =
    {|
ARCHI_TYPE Bad(void)
feature n in {5 .. 1}
ARCHI_ELEM_TYPES
ELEM_TYPE T(void)
BEHAVIOR
B(void; void) = <tick, exp(1)> . B()
INPUT_INTERACTIONS void
OUTPUT_INTERACTIONS void
ARCHI_TOPOLOGY
ARCHI_ELEM_INSTANCES
I : T()
ARCHI_ATTACHMENTS void
END
|}
  in
  match Parser.parse bad with
  | exception Parser.Parse_error _ -> ()
  | _ -> Alcotest.fail "empty range 5 .. 1 should be rejected"

(* [project_all]'s indexed lookup, [project]'s run scan and the member's
   own build must agree on member [c]. *)
let check_member_projections name fam all c spec =
  let own = Lts.of_spec spec in
  check_lts_identical (name ^ " (project)") (Flts.project fam c) own;
  check_lts_identical (name ^ " (project_all)") all.(c) own

let test_grid_sampled_identity () =
  (* The full thousand-member grid: eight members spread across it must
     project bit-identically to their standalone builds. *)
  let specs = grid_specs ~t_max:16 ~a_max:32 in
  let members = Array.length specs in
  Alcotest.(check int) "grid members" 1024 members;
  let fam, stats = Flts.build_family specs in
  (* The union's shape: grouping configurations differently would split
     or merge guards, states or edges. *)
  Alcotest.(check int) "union states" 22 fam.Flts.num_states;
  Alcotest.(check int) "union transitions" 6424 (Flts.num_transitions fam);
  Alcotest.(check int) "guards" 578 stats.Flts.guard_count;
  Alcotest.(check int) "guard words" 9826 stats.Flts.guard_words;
  let all = Flts.project_all fam in
  Alcotest.(check int) "projections" members (Array.length all);
  let _, solve_stats =
    Markov.analyze_ltss_dedup all (Measure.parse grid_measures_src)
  in
  Alcotest.(check int) "distinct solves" 513
    solve_stats.Markov.distinct_quotients;
  List.iter
    (fun c ->
      check_member_projections
        (Printf.sprintf "grid member %d" c)
        fam all c specs.(c))
    (List.sort_uniq Int.compare (List.init 8 (fun i -> i * (members - 1) / 7)))

(* A traced family run opens one span per phase, not one per member: the
   tracer's root count (capped at 10,000) stays at the phase count
   whatever the family size, and no pool worker opens a span of its own
   (it would be a root). *)
let test_family_trace_roots () =
  let module Trace = Dpma_obs.Trace in
  let names spans = List.map (fun sp -> sp.Trace.name) spans in
  List.iter
    (fun jobs ->
      Trace.reset ();
      Trace.set_enabled true;
      Fun.protect
        ~finally:(fun () ->
          Trace.set_enabled false;
          Trace.reset ())
        (fun () ->
          let fam =
            Elaborate.elaborate_family
              (Parser.parse (grid_aem ~t_max:4 ~a_max:8))
          in
          let specs =
            Array.map (fun m -> m.Elaborate.spec) fam.Elaborate.members
          in
          let _, stats =
            Option.get
              (Markov.family ~jobs ~measures:(Measure.parse grid_measures_src)
                 specs)
                .Markov.solved
          in
          let roots = Trace.roots () in
          let tag = Printf.sprintf "jobs %d: " jobs in
          Alcotest.(check (list string))
            (tag ^ "one root per phase")
            [ "adl.parse"; "adl.elaborate"; "family.build"; "family.project";
              "markov.dedup" ]
            (names roots);
          List.iter
            (fun sp ->
              if List.mem sp.Trace.name [ "adl.elaborate"; "family.project" ] then begin
                Alcotest.(check bool)
                  (tag ^ sp.Trace.name ^ " members") true
                  (List.assoc_opt "members" sp.Trace.attrs = Some (Trace.Int 64));
                Alcotest.(check int)
                  (tag ^ sp.Trace.name ^ " has no per-member children")
                  0 (List.length sp.Trace.children)
              end)
            roots;
          let dedup = List.nth roots 4 in
          Alcotest.(check (list string))
            (tag ^ "one child per dedup phase")
            [ "markov.dedup.key"; "markov.dedup.solve" ]
            (names dedup.Trace.children);
          List.iter
            (fun sp ->
              Alcotest.(check int)
                (tag ^ sp.Trace.name ^ " has no per-member children")
                0 (List.length sp.Trace.children))
            dedup.Trace.children;
          Alcotest.(check bool) (tag ^ "solves") true
            (List.assoc_opt "solves" (List.nth dedup.Trace.children 1).Trace.attrs
            = Some (Trace.Int stats.Markov.distinct_quotients));
          Alcotest.(check int) (tag ^ "two structures") 2
            stats.Markov.structures;
          Alcotest.(check bool) (tag ^ "structures") true
            (List.assoc_opt "structures" (List.hd dedup.Trace.children).Trace.attrs
            = Some (Trace.Int stats.Markov.structures));
          Alcotest.(check int) (tag ^ "nothing dropped") 0 (Trace.dropped ())))
    [ 1; 2 ]

(* [Markov.family] is the build, the projection and the dedup solves
   called one after the other: at jobs 1 and 2 its record equals those
   pieces called separately, members by [Lts.equal] and analyses bit
   for bit. *)
let test_family_entry_pieces () =
  let specs = grid_specs ~t_max:4 ~a_max:8 in
  let measures = Measure.parse grid_measures_src in
  (* The engine's figures without its clock readings. *)
  let untimed (b : Lts.build_stats) =
    { b with Lts.merge_seconds = 0.0; spill_write_seconds = 0.0;
      build_seconds = 0.0 }
  in
  List.iter
    (fun jobs ->
      let tag = Printf.sprintf "jobs %d: " jobs in
      let union, stats = Flts.build_family ~jobs specs in
      let members = Flts.project_all union in
      let analyses, solve_stats =
        Markov.analyze_ltss_dedup ~jobs members measures
      in
      let fam = Markov.family ~jobs ~measures specs in
      Alcotest.(check int) (tag ^ "union states") union.Flts.num_states
        fam.Markov.union_states;
      Alcotest.(check int) (tag ^ "union transitions")
        (Flts.num_transitions union) fam.Markov.union_transitions;
      Alcotest.(check (pair int int)) (tag ^ "guards")
        (stats.Flts.guard_count, stats.Flts.guard_words)
        (fam.Markov.stats.Flts.guard_count, fam.Markov.stats.Flts.guard_words);
      Alcotest.(check bool) (tag ^ "build stats") true
        (untimed stats.Flts.build = untimed fam.Markov.stats.Flts.build);
      Alcotest.(check int) (tag ^ "members") (Array.length members)
        (Array.length fam.Markov.members);
      Array.iteri
        (fun c lts ->
          Alcotest.(check bool) (Printf.sprintf "%smember %d" tag c) true
            (Lts.equal lts fam.Markov.members.(c)))
        members;
      let analyses', solve_stats' = Option.get fam.Markov.solved in
      Array.iteri
        (fun c a ->
          check_analysis_identical (Printf.sprintf "%smember %d" tag c)
            analyses'.(c) a)
        analyses;
      Alcotest.(check bool) (tag ^ "solve stats") true
        (solve_stats = solve_stats');
      Alcotest.(check bool) (tag ^ "phase seconds") true
        (fam.Markov.build_seconds >= 0.0 && fam.Markov.project_seconds >= 0.0
        && fam.Markov.analyze_seconds >= 0.0);
      let bare = Markov.family ~jobs specs in
      Alcotest.(check bool) (tag ^ "no measures, no solve") true
        (bare.Markov.solved = None && bare.Markov.analyze_seconds = 0.0);
      Array.iteri
        (fun c lts ->
          Alcotest.(check bool) (Printf.sprintf "%sbare member %d" tag c) true
            (Lts.equal lts bare.Markov.members.(c)))
        members)
    [ 1; 2 ]

let test_grid_every_member_identity () =
  (* Every member of a 64-member grid, not a sample: the projection keeps
     one guard run per state, so a member whose run is not the first
     one, or not the last one, takes each path. *)
  let specs = grid_specs ~t_max:4 ~a_max:8 in
  Alcotest.(check int) "grid members" 64 (Array.length specs);
  let fam = fst (Flts.build_family specs) in
  let all = Flts.project_all fam in
  Array.iteri
    (fun c spec ->
      check_member_projections (Printf.sprintf "grid member %d" c) fam all c
        spec)
    specs

let test_member_without_edges () =
  (* [T.Next] is one union state for both members, and under [stall = 1]
     it has no outgoing edge: no guard run admits that member there, and
     its projection must keep the state a deadlock. *)
  let archi =
    Parser.parse
      {|
ARCHI_TYPE Stall(void)

feature stall in {0, 1}

ARCHI_ELEM_TYPES

ELEM_TYPE T_Type(void)
BEHAVIOR
Go(void; void) = <step, exp(1)> . Next();
Next(void; void) = cond(stall = 0) -> <back, exp(2)> . Go()
INPUT_INTERACTIONS void
OUTPUT_INTERACTIONS void

ARCHI_TOPOLOGY

ARCHI_ELEM_INSTANCES
T : T_Type()

ARCHI_ATTACHMENTS void

END
|}
  in
  let specs =
    Array.map (fun m -> m.Elaborate.spec)
      (Elaborate.elaborate_family archi).Elaborate.members
  in
  let fam = fst (Flts.build_family specs) in
  Alcotest.(check int) "union states" 2 fam.Flts.num_states;
  Array.iteri
    (fun c spec ->
      check_lts_identical
        (Printf.sprintf "stall member %d" c)
        (Flts.project fam c) (Lts.of_spec spec))
    specs

(* [archi] with every feature's domain narrowed to its value in [binding]:
   a one-member family elaborated on its own. *)
let pinned (archi : Dpma_adl.Ast.archi) binding =
  let module Ast = Dpma_adl.Ast in
  {
    archi with
    Ast.features =
      List.map
        (fun (f : Ast.feature) ->
          { f with Ast.f_domain = [ List.assoc f.Ast.f_name binding ] })
        archi.Ast.features;
  }

let check_members_standalone name archi =
  (* Instance translations are shared across members that bind the
     features they read alike; each member must still equal its own
     elaboration, down to physically equal constant bodies. *)
  let fam = Elaborate.elaborate_family archi in
  Array.iteri
    (fun c (m : Elaborate.elaborated) ->
      let name = Printf.sprintf "%s member %d" name c in
      let solo =
        (Elaborate.elaborate_family (pinned archi fam.Elaborate.bindings.(c)))
          .Elaborate.members.(0)
      in
      let spec (e : Elaborate.elaborated) = e.Elaborate.spec in
      let defs e = (spec e).Dpma_pa.Term.defs in
      Alcotest.(check (list string))
        (name ^ ": constant names")
        (List.map fst (defs solo)) (List.map fst (defs m));
      Alcotest.(check bool)
        (name ^ ": constant bodies") true
        (List.for_all2 (fun (_, a) (_, b) -> a == b) (defs solo) (defs m));
      Alcotest.(check bool)
        (name ^ ": init") true
        ((spec solo).Dpma_pa.Term.init == (spec m).Dpma_pa.Term.init);
      Alcotest.(check bool)
        (name ^ ": general timings") true
        (List.equal
           (fun (a, d) (b, d') -> String.equal a b && Dpma_dist.Dist.equal d d')
           solo.Elaborate.general_timings m.Elaborate.general_timings);
      Alcotest.(check (list (pair string (list string))))
        (name ^ ": instance actions")
        solo.Elaborate.instance_actions m.Elaborate.instance_actions;
      Alcotest.(check (list string))
        (name ^ ": unattached interactions")
        solo.Elaborate.unattached_interactions
        m.Elaborate.unattached_interactions)
    fam.Elaborate.members

let test_members_match_standalone () =
  check_members_standalone "grid" (Parser.parse (grid_aem ~t_max:4 ~a_max:8));
  check_members_standalone "pinger" (Parser.parse family_aem)

(* The receiver's translation reads no feature, so the second member
   replays the first member's; the sender's grows with [depth] and picks
   a general distribution by it. *)
let parity_aem =
  {|
ARCHI_TYPE Parity(void)

feature depth in {1, 4}

ARCHI_ELEM_TYPES

ELEM_TYPE Sender_Type(const integer n)
BEHAVIOR
Start(void; void) = Count(0);
Count(integer k; void) =
choice {
  cond(k < n) -> <tick, exp(1)> . Count(k + 1),
  cond(k >= n && n = 1) -> <send, det(1)> . Count(0),
  cond(k >= n && n > 1) -> <send, det(2)> . Count(0)
}
INPUT_INTERACTIONS void
OUTPUT_INTERACTIONS UNI send

ELEM_TYPE Receiver_Type(const integer m)
BEHAVIOR
Start(void; void) = Wait(0);
Wait(integer k; void) =
choice {
  cond(k < m) -> <skip, exp(1)> . Wait(k + 1),
  cond(k >= m) -> <recv, det(1)> . Wait(0)
}
INPUT_INTERACTIONS UNI recv
OUTPUT_INTERACTIONS void

ARCHI_TOPOLOGY

ARCHI_ELEM_INSTANCES
S : Sender_Type(depth);
R : Receiver_Type(3)

ARCHI_ATTACHMENTS
FROM S.send TO R.recv

END
|}

let test_family_error_parity () =
  (* Expansions: the sender 3 (depth 1) or 6 (depth 4), the receiver 5.
     A family fails with the first failing member's own error. *)
  let archi = Parser.parse parity_aem in
  let error f =
    match f () with
    | exception Elaborate.Check_error m -> m
    | _ -> Alcotest.fail "elaboration should fail"
  in
  let first_member_error max_expansions =
    List.find_map
      (fun v ->
        match
          Elaborate.elaborate_family ~max_expansions
            (pinned archi [ ("depth", v) ])
        with
        | exception Elaborate.Check_error m -> Some m
        | _ -> None)
      [ 1; 4 ]
    |> Option.get
  in
  let contains sub s =
    let n = String.length sub in
    let rec go i =
      i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
    in
    go 0
  in
  List.iter
    (fun (max_expansions, expect) ->
      let msg =
        error (fun () -> Elaborate.elaborate_family ~max_expansions archi)
      in
      let name = Printf.sprintf "max_expansions %d" max_expansions in
      Alcotest.(check string) name (first_member_error max_expansions) msg;
      if not (contains expect msg) then
        Alcotest.failf "%s: %S does not mention %S" name msg expect)
    [
      (5, "instance R: more than 5 expanded behaviors");
      (* member 2 runs out in the replayed receiver, before its
         distribution clashes with the sender's *)
      (10, "instance R: more than 10 expanded behaviors");
      (11, "carries two different general distributions (det(2) and det(1))");
      (200_000, "carries two different general distributions");
    ]

let test_dedup_solves () =
  let specs = grid_specs ~t_max:4 ~a_max:8 in
  let members = Array.length specs in
  let measures = Measure.parse grid_measures_src in
  let results, stats =
    Markov.analyze_ltss_dedup (Markov.family specs).Markov.members measures
  in
  Alcotest.(check int) "stats members" members stats.Markov.members;
  Alcotest.(check bool)
    "genuinely fewer solves" true
    (stats.Markov.distinct_quotients < members);
  Alcotest.(check int)
    "shared = members - distinct"
    (members - stats.Markov.distinct_quotients)
    stats.Markov.solves_shared;
  (* Every member's analysis equals its own standalone pipeline's, bit
     for bit. *)
  Array.iteri
    (fun c spec ->
      check_analysis_identical
        (Printf.sprintf "member %d" c)
        results.(c)
        (Markov.analyze_lts (Lts.of_spec spec) measures))
    specs

(* Two hand-made members with the same shape and rates; [up]/[down]
   name the actions of both states' edges. *)
let labelled_member up down =
  let edge a r t =
    { Lts_fixture.label = Lts.obs a; rate = Some (Dpma_pa.Rate.exp r); target = t }
  in
  Lts_fixture.make ~init:0 ~state_name:string_of_int
    [| [ edge up 2.0 1 ]; [ edge down 3.0 0; edge down 0.5 2 ]; [ edge up 1.0 0 ] |]

let label_measures () =
  Measure.parse
    {|MEASURE up_rate IS ENABLED(up) -> TRANS_REWARD(1);
MEASURE in_stop IS ENABLED(stop) -> STATE_REWARD(1);
MEASURE per_go IS ENABLED(up) -> TRANS_REWARD(1)
  DIVIDED_BY ENABLED(go) -> STATE_REWARD(1);|}

let check_dedup_members name ltss ~solves =
  let measures = label_measures () in
  let results, stats = Markov.analyze_ltss_dedup ltss measures in
  Alcotest.(check int) (name ^ ": solves") solves
    stats.Markov.distinct_quotients;
  Alcotest.(check int) (name ^ ": shared") (Array.length ltss - solves)
    stats.Markov.solves_shared;
  Array.iteri
    (fun c lts ->
      check_analysis_identical
        (Printf.sprintf "%s: member %d" name c)
        results.(c) (Markov.analyze_lts lts measures))
    ltss;
  results

let test_dedup_label_only () =
  (* Members that differ only in action names are different LTSs, so
     each gets its own solve, and each member's values read its own
     names. *)
  let results =
    check_dedup_members "renamed"
      [| labelled_member "up" "down"; labelled_member "go" "stop" |]
      ~solves:2
  in
  Alcotest.(check bool)
    "members read their own names" false
    (Markov.value results.(0) "up_rate" = Markov.value results.(1) "up_rate")

let test_dedup_equal_members () =
  (* Two separately built members with equal CSRs share one solve. *)
  let a = labelled_member "up" "down" and b = labelled_member "up" "down" in
  Alcotest.(check bool) "separate arrays" false (a.Lts.row == b.Lts.row);
  ignore (check_dedup_members "equal" [| a; b |] ~solves:1)

(* A member whose chain fails to build (a time trap, a passive action
   left unsynchronized) fails the whole family solve with the error
   [Ctmc.of_lts] raises on the first such member, at any job count. *)
let test_dedup_build_errors () =
  let edge a rate t =
    { Lts_fixture.label = Lts.obs a; rate = Some rate; target = t }
  in
  let good = labelled_member "up" "down" in
  let trap =
    Lts_fixture.make ~init:0 ~state_name:string_of_int
      [| [ edge "go" (Dpma_pa.Rate.exp 1.0) 1 ];
         [ edge "spin" (Dpma_pa.Rate.imm ()) 2 ];
         [ edge "spin" (Dpma_pa.Rate.imm ()) 1 ] |]
  in
  let passive =
    Lts_fixture.make ~init:0 ~state_name:string_of_int
      [| [ edge "go" (Dpma_pa.Rate.exp 1.0) 1 ];
         [ edge "wait" (Dpma_pa.Rate.passive ()) 0 ] |]
  in
  let error f =
    match f () with
    | _ -> Alcotest.fail "no Build_error"
    | exception Ctmc.Build_error msg -> msg
  in
  List.iter
    (fun (name, ltss, first) ->
      let expect = error (fun () -> Ctmc.of_lts first) in
      List.iter
        (fun jobs ->
          Alcotest.(check string)
            (Printf.sprintf "%s, jobs %d" name jobs)
            expect
            (error (fun () ->
                 Markov.analyze_ltss_dedup ~jobs ltss (label_measures ()))))
        [ 1; 2 ])
    [
      ("trap first", [| good; trap; good; passive; trap |], trap);
      ("passive first", [| good; good; passive; trap |], passive);
    ]

(* The grid's members have two CTMC plans; filling a member's plan
   gives its own [Ctmc.of_lts] chain, floats by bits, and the fills of
   one plan share its columns. *)
let test_grid_plan_fill () =
  let ltss = (Markov.family (grid_specs ~t_max:16 ~a_max:32)).Markov.members in
  let plans = ref [] in
  let plan_of lts =
    match List.find_opt (fun (l, _) -> Ctmc.same_plan l lts) !plans with
    | Some (_, p) -> p
    | None ->
        let p = Ctmc.plan lts in
        plans := (lts, p) :: !plans;
        p
  in
  let bits = Array.map Int64.bits_of_float in
  Array.iteri
    (fun c lts ->
      let name = Printf.sprintf "member %d" c in
      let own = Ctmc.of_lts lts and filled = Ctmc.fill (plan_of lts) lts in
      let ints what a b = Alcotest.(check (array int)) (name ^ ": " ^ what) a b in
      let floats what a b =
        Alcotest.(check (array int64)) (name ^ ": " ^ what) (bits a) (bits b)
      in
      Alcotest.(check int) (name ^ ": n") own.Ctmc.n filled.Ctmc.n;
      ints "init_state" own.Ctmc.init_state filled.Ctmc.init_state;
      floats "init_prob" own.Ctmc.init_prob filled.Ctmc.init_prob;
      ints "row" own.Ctmc.row filled.Ctmc.row;
      ints "dst" own.Ctmc.dst filled.Ctmc.dst;
      floats "rate" own.Ctmc.rate filled.Ctmc.rate;
      ints "lab" own.Ctmc.lab filled.Ctmc.lab;
      ints "imm_row" own.Ctmc.imm_row filled.Ctmc.imm_row;
      ints "imm_lab" own.Ctmc.imm_lab filled.Ctmc.imm_lab;
      floats "imm_rate" own.Ctmc.imm_rate filled.Ctmc.imm_rate;
      ints "enabled_row" own.Ctmc.enabled_row filled.Ctmc.enabled_row;
      ints "enabled_lab" own.Ctmc.enabled_lab filled.Ctmc.enabled_lab;
      floats "exit_rate" own.Ctmc.exit_rate filled.Ctmc.exit_rate;
      Alcotest.(check bool) (name ^ ": shared columns") true
        (filled.Ctmc.dst == (Ctmc.fill (plan_of lts) lts).Ctmc.dst))
    ltss;
  Alcotest.(check int) "plans" 2 (List.length !plans)

(* [Lts.equal] is the CSR contract of the family path: a projection
   equals its member's own build, and a change to any compared field,
   however small, makes two LTSs unequal. The dedup's two key levels
   split it: [Ctmc.same_plan] and [Ctmc.same_rates] together are
   [Lts.equal], and only a timed rate change keeps the plan. *)
let test_lts_equal_plan_keys () =
  let specs = grid_specs ~t_max:4 ~a_max:8 in
  let c = Array.length specs - 1 in
  let fam, _ = Flts.build_family specs in
  let proj = (Flts.project_all fam).(c) and own = Lts.of_spec specs.(c) in
  Alcotest.(check bool) "projection equals own build" true (Lts.equal proj own);
  Alcotest.(check int) "equal plan hashes" (Ctmc.plan_hash own)
    (Ctmc.plan_hash proj);
  Alcotest.(check int) "equal rate hashes" (Ctmc.rates_hash own)
    (Ctmc.rates_hash proj);
  let keys_equal a b = Ctmc.same_plan a b && Ctmc.same_rates a b in
  Alcotest.(check bool) "keys equal" true (keys_equal own proj);
  let with_ ?(init = own.Lts.init) ?(lab = Fun.id) ?(tgt = Fun.id)
      ?(rate_val = Fun.id) ?(rate_prio = Fun.id) () =
    let edit f a = f (Array.copy a) in
    Lts.of_csr ~init ~state_name:own.Lts.state_name
      ~row:(Array.copy own.Lts.row) ~lab:(edit lab own.Lts.lab)
      ~tgt:(edit tgt own.Lts.tgt) ~rate_kind:(Array.copy own.Lts.rate_kind)
      ~rate_val:(edit rate_val own.Lts.rate_val)
      ~rate_prio:(edit rate_prio own.Lts.rate_prio)
  in
  let set i v a = a.(i) <- v; a in
  let last = Lts.num_transitions own - 1 in
  Alcotest.(check bool) "copy is equal" true (Lts.equal (with_ ()) own);
  List.iter
    (fun (what, other) ->
      Alcotest.(check bool) what false (Lts.equal own other);
      Alcotest.(check bool) (what ^ ": plan") false (Ctmc.same_plan own other))
    [
      ("label", with_ ~lab:(fun a -> set last (a.(last) + 1) a) ());
      ("target", with_
         ~tgt:(fun a -> set last ((a.(last) + 1) mod own.Lts.num_states) a) ());
      ("priority", with_ ~rate_prio:(fun a -> set last (a.(last) + 1) a) ());
      ("init", with_ ~init:((own.Lts.init + 1) mod own.Lts.num_states) ());
    ];
  let zero = with_ ~rate_val:(set 0 0.0) ()
  and minus_zero = with_ ~rate_val:(set 0 (-0.0)) () in
  Alcotest.(check bool) "0.0 vs -0.0" false (Lts.equal zero minus_zero);
  Alcotest.(check bool) "0.0 vs -0.0: keys" false (keys_equal zero minus_zero);
  let first kind =
    let rec go i = if own.Lts.rate_kind.(i) = kind then i else go (i + 1) in
    go 0
  in
  let scaled i = with_ ~rate_val:(fun a -> set i (2.0 *. a.(i)) a) () in
  let timed = scaled (first 1) and weight = scaled (first 2) in
  Alcotest.(check bool) "timed rate" false (Lts.equal own timed);
  Alcotest.(check bool) "timed rate: plan" true (Ctmc.same_plan own timed);
  Alcotest.(check bool) "timed rate: rates" false (Ctmc.same_rates own timed);
  Alcotest.(check bool) "immediate weight: plan" false
    (Ctmc.same_plan own weight);
  Alcotest.(check bool) "immediate weight: rates" true
    (Ctmc.same_rates own weight)

let suite =
  [
    Alcotest.test_case "rpc projections bit-identical" `Quick
      test_projection_identity_rpc;
    Alcotest.test_case "streaming projections bit-identical" `Quick
      test_projection_identity_streaming;
    Alcotest.test_case "union shares states" `Quick test_sharing;
    Alcotest.test_case "featured build independent of jobs" `Quick
      test_jobs_identity;
    Alcotest.test_case "one-member family equals the plain build" `Quick
      test_one_member_is_plain_build;
    Alcotest.test_case "family build records lts.par instruments" `Quick
      test_family_par_metrics;
    Alcotest.test_case "figure values identical through family path" `Quick
      test_figure_identity;
    Alcotest.test_case "battery sweep identical through family path" `Quick
      test_battery_sweep_identity;
    Alcotest.test_case "ADL feature families" `Quick test_adl_family;
    Alcotest.test_case "ADL family errors" `Quick test_adl_family_errors;
    Alcotest.test_case "guard membership" `Quick test_guard_mem;
    Alcotest.test_case "guard bitsets match set semantics" `Quick
      test_guard_bitset_model;
    Alcotest.test_case "ADL feature range domains" `Quick
      test_adl_feature_ranges;
    Alcotest.test_case "1024-member grid projections bit-identical" `Quick
      test_grid_sampled_identity;
    Alcotest.test_case "every grid member projects bit-identically" `Quick
      test_grid_every_member_identity;
    Alcotest.test_case "traced family: one span per phase" `Quick
      test_family_trace_roots;
    Alcotest.test_case "family entry equals its pieces" `Quick
      test_family_entry_pieces;
    Alcotest.test_case "member without edges at a shared state" `Quick
      test_member_without_edges;
    Alcotest.test_case "family members equal their own elaboration" `Quick
      test_members_match_standalone;
    Alcotest.test_case "family elaboration errors match the member's" `Quick
      test_family_error_parity;
    Alcotest.test_case "deduplicated solves match per-member solves" `Quick
      test_dedup_solves;
    Alcotest.test_case "members differing only in labels solve apart"
      `Quick test_dedup_label_only;
    Alcotest.test_case "separately built equal members share one solve"
      `Quick test_dedup_equal_members;
    Alcotest.test_case "Lts.equal and the CTMC plan keys" `Quick
      test_lts_equal_plan_keys;
    Alcotest.test_case "family build errors match the first member's"
      `Quick test_dedup_build_errors;
    Alcotest.test_case "grid members fill their shared plan like of_lts"
      `Quick test_grid_plan_fill;
    QCheck_alcotest.to_alcotest ~long:false guard_prop;
  ]
