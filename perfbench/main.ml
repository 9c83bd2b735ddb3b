(* The repository benchmark: one client process running a closed loop of
   operations against the dpma library, at the library's default job
   count. run.py builds this program and drives it; README.md records the
   workloads, the metrics and the layer map.

   A run draws a fixed operation sequence from its seed: every op picks
   one input from the workload's small fixed list of variants, and the
   library sees only that generated input. The first op is an untimed
   warm-up that belongs to set-up (it fills the global hash-consing table
   and sizes the heap). Every later op runs behind a full major
   collection, outside its timer, so no earlier result is still live
   while it runs; its output is then checked against goldens and
   per-member reference solves, also outside the timer. A failed check or an
   exception counts as a failed op and the run goes on. Set-up and every
   op are timed in segments between calibrations (see below), and the
   end-to-end times are the calibrated ones.

   With --trace 1 every iteration runs the plain op and then the same op
   with each public library call it makes wrapped in a span, so the
   per-layer figures and the tracing overhead come from one run. The
   single-threaded legs (lts.build_j1_s, markov.dedup_j1_s,
   markov.per_member_s) run only there, after the traced op and outside
   its timer. *)

module Pipeline = Dpma_core.Pipeline
module Markov = Dpma_core.Markov
module General = Dpma_core.General
module NI = Dpma_core.Noninterference
module Lts = Dpma_lts.Lts
module Flts = Dpma_lts.Flts
module Ctmc = Dpma_ctmc.Ctmc
module Measure = Dpma_measures.Measure
module Elaborate = Dpma_adl.Elaborate
module Parser = Dpma_adl.Parser
module Rpc = Dpma_models.Rpc
module Streaming = Dpma_models.Streaming
module Figures = Dpma_models.Figures
module Pool = Dpma_util.Pool
module M = Dpma_obs.Metrics
module I = Dpma_obs.Instruments

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Calibration                                                         *)

(* The reference host is a 2-vCPU share of a busy machine. The speed it
   gives a single thread drifts by up to 60% over seconds to minutes, as
   other tenants load the memory system, and a run's median moves with
   it. So every measured interval is timed next to a calibration:
   fixed work of the benchmark's own, calling no library code, so no
   change to the program moves it. Of the loops tried (pointer chases
   through 2 and 64 MiB, float arithmetic, string hashtables, sorts of
   20000-element lists), sorting freshly allocated 2000-element lists,
   which stays in the minor heap, drifts most like the ops do: dividing
   by it took the quartile spread of 3 s windows of family_grid ops from
   0.40 to 0.06, and of assess_paper ops from 0.28 to 0.09. *)
let cal_sink = ref 0

let calibration_work () =
  for r = 1 to 40 do
    let l = List.init 2000 (fun k -> ((k * 7919) + r) land 65535) in
    cal_sink := !cal_sink + List.hd (List.sort compare l)
  done

(* Seconds the calibration takes now: the median of five back-to-back
   runs, so a preempted run does not count. *)
let calibration () =
  let one _ =
    let t0 = now () in
    calibration_work ();
    now () -. t0
  in
  let runs = Array.init 5 one in
  Array.sort Float.compare runs;
  runs.(2)

(* The calibration's time at the reference host's faster speed level. *)
let nominal_calibration_s = 0.005

(* [calibrated dt ~before ~after] is the wall time [dt] scaled to the
   nominal speed: [before] and [after] are the calibrations timed right
   before and right after the interval. On a host whose speed does not
   drift it differs from [dt] by a constant factor. *)
let calibrated dt ~before ~after =
  dt *. 2.0 *. nominal_calibration_s /. (before +. after)

(* Times an op in segments: [lap] ends the current segment, times a
   calibration and starts the next, so an op that runs for seconds is
   calibrated between its public calls too, not only at its ends. [wall]
   and [cal] sum the segments' wall and calibrated times. *)
type stopwatch = {
  mutable wall : float;
  mutable cal : float;
  mutable seg_cal : float;
  mutable seg_t0 : float;
}

let start_stopwatch () =
  let c = calibration () in
  { wall = 0.0; cal = 0.0; seg_cal = c; seg_t0 = now () }

let lap sw () =
  let dt = now () -. sw.seg_t0 in
  let c = calibration () in
  sw.wall <- sw.wall +. dt;
  sw.cal <- sw.cal +. calibrated dt ~before:sw.seg_cal ~after:c;
  sw.seg_cal <- c;
  sw.seg_t0 <- now ()

(* ------------------------------------------------------------------ *)
(* Per-layer accounting of the traced run                              *)

(* Sums of the current traced op, keyed by reported metric name. *)
let acc : (string, float) Hashtbl.t = Hashtbl.create 32

let add key v =
  Hashtbl.replace acc key
    (v +. Option.value ~default:0.0 (Hashtbl.find_opt acc key))

let spans_s = ref 0.0

let alloc_mb () =
  let s = Gc.quick_stat () in
  (s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words)
  *. float_of_int (Sys.word_size / 8)
  /. 1048576.0

let lts_build_sum () = (M.stats I.lts_build_seconds).M.hist_sum

(* [span layer f] times one public library call as [layer ^ "_s"]. An
   LTS build made inside another layer's call (the noninterference check
   builds its own model) is read from the lts.build.seconds histogram and
   moved to lts.build_s, so every span reports its self time. *)
let span layer f =
  let b0 = lts_build_sum () and a0 = alloc_mb () and t0 = now () in
  let r = f () in
  let dt = now () -. t0 in
  let inner = if layer = "lts.build" then 0.0 else lts_build_sum () -. b0 in
  spans_s := !spans_s +. dt;
  add (layer ^ "_s") (dt -. inner);
  if inner > 0.0 then add "lts.build_s" inner;
  (match layer with
  | "lts.build" -> add "lts.alloc_mb" (alloc_mb () -. a0)
  | "ctmc.build" | "ctmc.solve" -> add "ctmc.alloc_mb" (alloc_mb () -. a0)
  | _ -> ());
  r

(* Times a single-threaded leg behind a full major collection, as ops are. *)
let timed f =
  Gc.full_major ();
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* The same steps as [Markov.analyze_lts], one span per public call. *)
let analyze_lts_traced lts measures =
  let ctmc = span "ctmc.build" (fun () -> Ctmc.of_lts lts) in
  let pi = span "ctmc.solve" (fun () -> Ctmc.steady_state ctmc) in
  let values =
    span "measures.eval" (fun () ->
        List.map (fun m -> (m.Measure.name, Measure.eval_ctmc ctmc pi m)) measures)
  in
  { Markov.states = lts.Lts.num_states; tangible = ctmc.Ctmc.n; values }

(* ------------------------------------------------------------------ *)
(* Output checks                                                       *)

let corrupt = ref false

(* Expected values pass through these, so --corrupt-reference perturbs
   every golden and reference value and the checks must catch it. *)
let expect_int n = if !corrupt then n + 1 else n

let expect_float x =
  if not !corrupt then x else if x = 0.0 then 1e-6 else x *. (1.0 +. 1e-6)

let check_int what expected actual =
  let expected = expect_int expected in
  if expected = actual then []
  else [ Printf.sprintf "%s: expected %d, got %d" what expected actual ]

(* Measure values against a reference solve: the dedup path agrees with
   per-member solves up to summation order, so within 1e-12 relative. *)
let check_values what expected actual =
  let close a b =
    a = b
    || (Float.is_nan a && Float.is_nan b)
    || Float.abs (a -. b) <= 1e-12 *. Float.max (Float.abs a) (Float.abs b)
  in
  List.concat_map
    (fun (name, v) ->
      match List.assoc_opt name expected with
      | None -> [ Printf.sprintf "%s: no reference for %s" what name ]
      | Some e ->
          let e = expect_float e in
          if close v e then []
          else [ Printf.sprintf "%s %s: expected %.17g, got %.17g" what name e v ])
    actual

let fmt_values buf (a : Markov.analysis) =
  Printf.bprintf buf "%d/%d" a.Markov.states a.Markov.tangible;
  List.iter (fun (n, v) -> Printf.bprintf buf " %s=%.17g" n v) a.Markov.values;
  Buffer.add_char buf ';'

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)

type ('i, 'o) workload = {
  inputs : unit -> (string * string * 'i) array;
      (** each variant's name, a rendering of its generated input (for
          the input digest), and the input itself *)
  op : lap:(unit -> unit) -> 'i -> 'o;
      (** calls [lap] between its public library calls *)
  traced : 'i -> 'o * (unit -> unit);
      (** the op with every public call in a span, and its
          single-threaded legs *)
  check : 'i -> 'o -> string list;  (** mismatches of one op's output *)
  render : 'o -> string;  (** canonical output, for the output digest *)
}

type packed = W : ('i, 'o) workload -> packed

(* --- assess_paper: the paper's whole methodology ------------------- *)

(* Four (shutdown timeout, awake period) pairs from the Fig. 3 and Fig. 4
   axes; each op assesses the rpc study at the timeout and then the
   streaming study at the awake period. *)
let assess_variants = [ (5.0, 100.0); (2.0, 200.0); (10.0, 50.0); (15.0, 400.0) ]

let () =
  List.iter
    (fun (t, a) ->
      assert (List.mem t Figures.default_rpc_timeouts);
      assert (List.mem a Figures.default_awake_periods))
    assess_variants

let assess_sim = General.default_sim_params

let assess_traced (study : Pipeline.study) =
  let sim = assess_sim in
  let functional = Option.value ~default:study.spec study.functional_spec in
  let verdict =
    span "ni.check" (fun () ->
        NI.check_spec functional ~high:study.high ~low:study.low)
  in
  let functional_lts = span "lts.build" (fun () -> Lts.of_spec functional) in
  let high a = List.exists (String.equal a) study.high
  and low a = List.exists (String.equal a) study.low in
  let trace_secure =
    span "ni.trace" (fun () -> NI.trace_secure functional_lts ~high ~low)
  in
  let branching_secure =
    span "ni.branching" (fun () -> NI.branching_secure functional_lts ~high ~low)
  in
  let lts = span "lts.build" (fun () -> Lts.of_spec study.spec) in
  let lts_without =
    span "lts.restrict" (fun () -> Markov.without_dpm lts ~high:study.high)
  in
  let markovian_with_dpm = analyze_lts_traced lts study.measures in
  let markovian_without_dpm = analyze_lts_traced lts_without study.measures in
  let timing = General.timing_of_list study.general_timings in
  let measures = study.measures in
  let validation =
    span "sim.validate" (fun () -> General.validate lts ~timing ~measures sim)
  in
  let general_with_dpm =
    span "sim.simulate" (fun () -> General.simulate lts ~timing ~measures sim)
  in
  let general_without_dpm =
    span "sim.simulate" (fun () ->
        General.simulate lts_without ~timing ~measures sim)
  in
  {
    Pipeline.verdict;
    trace_secure;
    branching_secure;
    markovian_with_dpm;
    markovian_without_dpm;
    validation;
    general_with_dpm;
    general_without_dpm;
  }

let render_report buf (r : Pipeline.report) =
  Printf.bprintf buf "%s %b %b;"
    (match r.verdict with NI.Secure -> "secure" | NI.Insecure _ -> "insecure")
    r.trace_secure r.branching_secure;
  fmt_values buf r.markovian_with_dpm;
  fmt_values buf r.markovian_without_dpm;
  Printf.bprintf buf "%b" r.validation.General.consistent;
  List.iter
    (fun (e : General.estimate) ->
      Printf.bprintf buf " %s=%.17g" e.General.measure
        e.General.summary.Dpma_util.Stats.mean)
    (r.general_with_dpm @ r.general_without_dpm);
  Buffer.add_char buf ';'

let check_report (study : Pipeline.study) ~states (r : Pipeline.report) =
  let name = study.study_name in
  check_int (name ^ " states") states r.markovian_with_dpm.Markov.states
  @ (match r.verdict with
    | NI.Secure -> []
    | NI.Insecure _ -> [ name ^ ": expected a Secure verdict" ])
  @ (if r.trace_secure && r.branching_secure then []
     else [ name ^ ": expected trace and branching security" ])
  @
  if r.validation.General.consistent then []
  else [ name ^ ": validation is not consistent" ]

let assess_paper =
  W
    {
      inputs =
        (fun () ->
          Array.of_list
            (List.map
               (fun (t, a) ->
                 let name =
                   Printf.sprintf "shutdown_mean=%g,awake_period_mean=%g" t a
                 in
                 ( name,
                   name,
                   ( Rpc.study { Rpc.default_params with shutdown_mean = t },
                     Streaming.study
                       { Streaming.default_params with awake_period_mean = a }
                   ) ))
               assess_variants));
      op =
        (fun ~lap (rpc, streaming) ->
          let r = Pipeline.assess ~sim_params:assess_sim rpc in
          lap ();
          (r, Pipeline.assess ~sim_params:assess_sim streaming));
      traced =
        (fun (rpc, streaming) ->
          ( (assess_traced rpc, assess_traced streaming),
            (* Single-threaded leg: one 1-job build of each model the op
               builds. *)
            fun () ->
              List.iter
                (fun (study : Pipeline.study) ->
                  List.iter
                    (fun spec ->
                      let (_ : Lts.t * Lts.build_stats), dt =
                        timed (fun () -> Lts.build ~jobs:1 spec)
                      in
                      add "lts.build_j1_s" dt)
                    [
                      Option.value ~default:study.spec study.functional_spec;
                      study.spec;
                    ])
                [ rpc; streaming ] ));
      check =
        (fun (rpc, streaming) (r, s) ->
          check_report rpc ~states:546 r @ check_report streaming ~states:19133 s);
      render =
        (fun (r, s) ->
          let buf = Buffer.create 512 in
          render_report buf r;
          render_report buf s;
          Buffer.contents buf);
    }

(* --- family_grid: 1024 members, half the solves shared --------------- *)

let grid_rates = [ 0.5; 0.4; 0.6; 0.8 ]

let read_file path = In_channel.with_open_bin path In_channel.input_all

let grid_source rate =
  let src = read_file "examples/specs/streaming_grid.aem" in
  let pattern = "<emit_frame, exp(0.5)>" in
  let pl = String.length pattern in
  let rec find i =
    if i + pl > String.length src then
      failwith "streaming_grid.aem: source rate pattern not found"
    else if String.sub src i pl = pattern then i
    else find (i + 1)
  in
  let i = find 0 in
  String.sub src 0 i
  ^ Printf.sprintf "<emit_frame, exp(%.17g)>" rate
  ^ String.sub src (i + pl) (String.length src - i - pl)

type grid_out = {
  g_specs : Dpma_pa.Term.spec array;
  g_union_states : int;
  g_analyses : Markov.analysis array;
  g_stats : Markov.family_solve_stats;
}

let grid_samples members = List.init 8 (fun i -> i * (members - 1) / 7)

(* The single-threaded legs of family_grid: the dedup solve at one job,
   and the per-member path ([analyze_lts] on every member). *)
let family_legs ltss measures () =
  let (_ : Markov.analysis array * Markov.family_solve_stats), dt =
    timed (fun () -> Markov.analyze_ltss_dedup ~jobs:1 ltss measures)
  in
  add "markov.dedup_j1_s" dt;
  let (_ : Markov.analysis array), dt =
    timed (fun () -> Array.map (fun l -> Markov.analyze_lts l measures) ltss)
  in
  add "markov.per_member_s" dt

(* The plain and the traced op share one body; only the span differs. *)
type spanner = { span : 'a. string -> (unit -> 'a) -> 'a }

let family_grid =
  let measures =
    lazy (Measure.parse (read_file "examples/specs/streaming_grid.measures"))
  in
  let grid_op { span } src =
    let measures = Lazy.force measures in
    let specs =
      span "adl.elaborate" (fun () ->
          let fam = Elaborate.elaborate_family (Parser.parse src) in
          Array.map (fun m -> m.Elaborate.spec) fam.Elaborate.members)
    in
    let flts, _ = span "flts.build" (fun () -> Flts.build_family specs) in
    let ltss = span "flts.project" (fun () -> Flts.project_all flts) in
    let analyses, stats =
      span "markov.dedup" (fun () -> Markov.analyze_ltss_dedup ltss measures)
    in
    ( {
        g_specs = specs;
        g_union_states = flts.Flts.num_states;
        g_analyses = analyses;
        g_stats = stats;
      },
      family_legs ltss measures )
  in
  W
    {
      inputs =
        (fun () ->
          ignore (Lazy.force measures);
          Array.of_list
            (List.map
               (fun r ->
                 let src = grid_source r in
                 (Printf.sprintf "source_rate=%g" r, src, src))
               grid_rates));
      (* No laps: a calibration takes a fifth of this op's time. *)
      op = (fun ~lap:_ src -> fst (grid_op { span = (fun _ f -> f ()) } src));
      traced = grid_op { span };
      check =
        (fun _ o ->
          let measures = Lazy.force measures in
          let members = Array.length o.g_specs in
          check_int "members" 1024 members
          @ check_int "union states" 22 o.g_union_states
          @ check_int "distinct quotients" 513
              o.g_stats.Markov.distinct_quotients
          @ List.concat_map
              (fun c ->
                let reference =
                  Markov.analyze_lts (Lts.of_spec o.g_specs.(c)) measures
                in
                check_values
                  (Printf.sprintf "member %d" c)
                  reference.Markov.values o.g_analyses.(c).Markov.values)
              (grid_samples members));
      render =
        (fun o ->
          let buf = Buffer.create 4096 in
          Printf.bprintf buf "%d %d;" o.g_union_states
            o.g_stats.Markov.distinct_quotients;
          Array.iter (fmt_values buf) o.g_analyses;
          Buffer.contents buf);
    }

let workloads =
  [
    ("assess_paper", assess_paper);
    ("family_grid", family_grid);
  ]

(* ------------------------------------------------------------------ *)
(* The closed loop                                                     *)

let median xs =
  match List.sort Float.compare xs with
  | [] -> nan
  | sorted ->
      let a = Array.of_list sorted in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let vm_hwm_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf
          (String.sub line 6 (String.length line - 6))
          " %d kB"
          (fun kb -> float_of_int kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

let counters =
  [
    ("lts.states", I.lts_states);
    ("lts.transitions", I.lts_transitions);
    ("sos.hits", I.sos_memo_hits);
    ("sos.misses", I.sos_memo_misses);
    ("ni.states_pruned", I.ni_product_pruned);
    ("bisim.refine_rounds", I.bisim_rounds);
    ("ni.product_rounds", I.ni_product_rounds);
    ("ctmc.tangible_states", I.ctmc_states);
    ("ctmc.solve_iterations", I.ctmc_solve_iterations);
    ("sim.events", I.sim_events);
  ]

(* Per-layer metrics, in the order and with the units of BENCHMARK.json. *)
let per_layer_units =
  [
    ("adl.elaborate_s", "s");
    ("lts.build_s", "s");
    ("lts.build_j1_s", "s");
    ("lts.states", "count");
    ("lts.transitions", "count");
    ("lts.sos_hit_ratio", "ratio");
    ("lts.alloc_mb", "MiB");
    ("flts.build_s", "s");
    ("flts.project_s", "s");
    ("flts.union_states", "count");
    ("flts.guard_words", "count");
    ("ni.check_s", "s");
    ("ni.trace_s", "s");
    ("ni.branching_s", "s");
    ("ni.states_pruned", "count");
    ("bisim.rounds", "count");
    ("ctmc.build_s", "s");
    ("ctmc.solve_s", "s");
    ("ctmc.tangible_states", "count");
    ("ctmc.solve_iterations", "count");
    ("ctmc.alloc_mb", "MiB");
    ("measures.eval_s", "s");
    ("markov.dedup_s", "s");
    ("markov.dedup_j1_s", "s");
    ("markov.per_member_s", "s");
    ("markov.distinct_ratio", "ratio");
    ("sim.validate_s", "s");
    ("sim.simulate_s", "s");
    ("sim.events", "count");
    ("sim.events_per_s", "1/s");
    ("op.alloc_mb", "MiB");
    ("gc.major_collections", "count");
    ("trace.op_p50_s", "s");
    ("trace.overhead_s", "s");
    ("trace.coverage", "ratio");
    ("run.jobs", "count");
    ("run.nproc", "count");
  ]

(* One traced op: the span sums, counter deltas and allocation of the
   call, a [lap] that ends its timing, then its single-threaded legs.
   Returns the op's output and its metric row. *)
let traced_iteration traced ~lap input =
  Hashtbl.reset acc;
  spans_s := 0.0;
  let c0 = List.map (fun (k, c) -> (k, M.count c)) counters in
  let gc0 = Gc.quick_stat () and a0 = alloc_mb () and t0 = now () in
  let out, legs = traced input in
  let dt = now () -. t0 in
  let a1 = alloc_mb () and gc1 = Gc.quick_stat () in
  lap ();
  let delta k =
    float_of_int (M.count (List.assoc k counters) - List.assoc k c0)
  in
  let sum keys =
    List.fold_left
      (fun s k -> s +. Option.value ~default:0.0 (Hashtbl.find_opt acc k))
      0.0 keys
  in
  let family_gauge g = if Hashtbl.mem acc "flts.build_s" then M.value g else 0.0 in
  let ratio a b = if b > 0.0 then a /. b else 0.0 in
  let events = delta "sim.events" in
  let row =
    [
      ("lts.states", delta "lts.states");
      ("lts.transitions", delta "lts.transitions");
      ( "lts.sos_hit_ratio",
        ratio (delta "sos.hits") (delta "sos.hits" +. delta "sos.misses") );
      ("flts.union_states", family_gauge I.family_states);
      ("flts.guard_words", family_gauge I.family_guard_words);
      ("ni.states_pruned", delta "ni.states_pruned");
      ("bisim.rounds", delta "bisim.refine_rounds" +. delta "ni.product_rounds");
      ("ctmc.tangible_states", delta "ctmc.tangible_states");
      ("ctmc.solve_iterations", delta "ctmc.solve_iterations");
      ( "markov.distinct_ratio",
        (* base: the family's members *)
        if Hashtbl.mem acc "markov.dedup_s" then
          let distinct = M.value I.family_distinct_quotients in
          ratio distinct (distinct +. M.value I.family_solves_shared)
        else 0.0 );
      ("sim.events", events);
      ("sim.events_per_s", ratio events (sum [ "sim.validate_s"; "sim.simulate_s" ]));
      ("op.alloc_mb", a1 -. a0);
      ( "gc.major_collections",
        float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections) );
      ("trace.coverage", ratio !spans_s dt);
    ]
  in
  legs ();
  let from_acc =
    List.filter_map
      (fun (k, _) -> if List.mem_assoc k row then None else Some (k, sum [ k ]))
      per_layer_units
  in
  (out, row @ from_acc)

let json_float x = Printf.sprintf "%.17g" x

let print_result ~correct ~attempted ~failed metrics =
  let b = Buffer.create 1024 in
  Printf.bprintf b
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {"
    correct attempted failed;
  List.iteri
    (fun i (name, unit_, v) ->
      Printf.bprintf b "%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}"
        (if i = 0 then "" else ", ")
        name (json_float v) unit_)
    metrics;
  Buffer.add_string b "}}";
  print_endline (Buffer.contents b)

let run (W w) ~name ~seed ~seconds ~trace ~t_start ~setup_only ~digests =
  let variants = w.inputs () in
  (* The op sequence: consecutive blocks, each a seeded shuffle of all
     variants, so every run sees nearly the same mix of inputs. *)
  let rng = Random.State.make [| seed |] in
  let block = ref [] in
  let draw () =
    if !block = [] then begin
      let a = Array.init (Array.length variants) Fun.id in
      for i = Array.length a - 1 downto 1 do
        let j = Random.State.int rng (i + 1) in
        let t = a.(i) in
        a.(i) <- a.(j);
        a.(j) <- t
      done;
      block := Array.to_list a
    end;
    match !block with
    | i :: rest ->
        block := rest;
        variants.(i)
    | [] -> assert false
  in
  (* Set-up runs on a stopwatch too. Its first segment runs from the
     process spawn, so it holds runtime start and input generation, but
     not the first calibration. *)
  let t_cal = now () in
  let sw = start_stopwatch () in
  sw.seg_t0 <- sw.seg_t0 -. (t_cal -. t_start);
  (let _, _, input = draw () in
   ignore (w.op ~lap:(lap sw) input));
  lap sw ();
  let setup_s = sw.cal in
  Printf.eprintf "perfbench: %s set-up %.4f s wall, %.4f s calibrated\n%!"
    name sw.wall setup_s;
  if setup_only then begin
    Printf.printf "{\"setup_s\": %s}\n" (json_float setup_s);
    exit 0
  end;
  let jobs = Pool.default_jobs () and nproc = Pool.hardware_parallelism () in
  let attempted = ref 0 and failed = ref 0 and timed_s = ref 0.0 in
  let latencies = ref [] and wall_latencies = ref [] in
  let traced_latencies = ref [] and rows = ref [] in
  (* Runs [f ~lap] on one op's input behind a full major collection, on
     a stopwatch that [f] stops with a last [lap], checks its output with
     [w.check] and [also] outside the timer, and returns the wall
     latency, the calibrated latency and the extra result of [f] (None
     when the op raised). *)
  let attempt ?(also = fun _ -> []) ~op_index (variant, rendered, input) f =
    incr attempted;
    let fail msgs =
      incr failed;
      List.iter
        (Printf.eprintf "perfbench: op %d (%s) FAILED: %s\n%!" op_index variant)
        msgs
    in
    Gc.full_major ();
    let sw = start_stopwatch () in
    match f ~lap:(lap sw) input with
    | exception e ->
        lap sw ();
        timed_s := !timed_s +. sw.cal;
        fail [ Printexc.to_string e ];
        None
    | out, extra ->
        let dt = sw.wall and cdt = sw.cal in
        timed_s := !timed_s +. cdt;
        Printf.eprintf "perfbench: op %d (%s) %.4f s wall, %.4f s calibrated\n%!"
          op_index variant dt cdt;
        (match w.check input out @ also out with [] -> () | msgs -> fail msgs);
        if digests then
          Printf.eprintf "digest op %d variant %s input %s output %s\n%!"
            op_index variant
            (Digest.to_hex (Digest.string rendered))
            (Digest.to_hex (Digest.string (w.render out)));
        Some (dt, cdt, extra)
  in
  let plain ~lap input =
    let out = w.op ~lap input in
    lap ();
    (out, [])
  in
  (* The traced op must give the plain op's output: the spans wrap the
     same public calls, and a traced copy that drifted from the op it
     copies would measure something else. *)
  let plain_output = ref "" in
  let remember out =
    if trace then plain_output := w.render out;
    []
  and same_as_plain out =
    if String.equal (w.render out) !plain_output then []
    else [ "traced output differs from the plain op's output" ]
  in
  let t_loop = now () and op_index = ref 0 in
  while !op_index = 0 || now () -. t_loop < seconds do
    incr op_index;
    let variant = draw () in
    (match attempt ~also:remember ~op_index:!op_index variant plain with
    | Some (dt, cdt, _) ->
        wall_latencies := dt :: !wall_latencies;
        latencies := cdt :: !latencies
    | None -> ());
    if trace then
      match
        attempt ~also:same_as_plain ~op_index:!op_index variant
          (traced_iteration w.traced)
      with
      | Some (dt, _, row) ->
          traced_latencies := dt :: !traced_latencies;
          rows := row :: !rows
      | None -> ()
  done;
  let ops = List.length !latencies in
  if ops = 0 || (trace && !rows = []) then begin
    Printf.eprintf "perfbench: %s: no op completed\n%!" name;
    exit 1
  end;
  let p50 = median !latencies and wall_p50 = median !wall_latencies in
  Printf.eprintf
    "perfbench: %s seed %d: jobs %d, nproc %d, %d ops, fail_ratio %d/%d, \
     op_p50_s %.4f calibrated, %.4f wall\n%!"
    name seed jobs nproc ops !failed !attempted p50 wall_p50;
  (* A p90 has at least ten samples beyond it only from 100 ops on. *)
  if ops >= 100 then begin
    let sorted = Array.of_list (List.sort Float.compare !latencies) in
    Printf.eprintf "perfbench: %s op_p90_s %.6f calibrated over %d ops\n%!" name
      sorted.((ops * 9 / 10) - 1)
      ops
  end;
  let metrics =
    if trace then begin
      let traced_p50 = median !traced_latencies in
      let fixed =
        [
          ("trace.op_p50_s", traced_p50);
          ("trace.overhead_s", traced_p50 -. wall_p50);
          ("run.jobs", float_of_int jobs);
          ("run.nproc", float_of_int nproc);
        ]
      in
      List.map
        (fun (k, u) ->
          match List.assoc_opt k fixed with
          | Some v -> (k, u, v)
          | None -> (k, u, median (List.map (List.assoc k) !rows)))
        per_layer_units
    end
    else
      [
        ("setup_s", "s", setup_s);
        ("ops_per_s", "1/s", float_of_int (!attempted - !failed) /. !timed_s);
        ("op_p50_s", "s", p50);
        ("peak_rss_mb", "MiB", vm_hwm_mb ());
      ]
  in
  print_result ~correct:(!failed = 0) ~attempted:!attempted ~failed:!failed
    metrics

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10.0 in
  let trace = ref 0 and t0 = ref nan and setup_only = ref false in
  let digests = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N seed of the op sequence");
      ("--seconds", Arg.Set_float seconds, "S length of the measured loop");
      ("--trace", Arg.Set_int trace, "0|1 traced per-layer run");
      ("--t0", Arg.Set_float t0, "EPOCH process spawn time, for setup_s");
      ("--setup-only", Arg.Set setup_only, " set up, print setup_s and exit");
      ("--digests", Arg.Set digests, " print per-op input/output digests");
      ( "--corrupt-reference",
        Arg.Set corrupt,
        " perturb every expected value (checks must fail)" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  let t_start = if Float.is_nan !t0 then now () else !t0 in
  match List.assoc_opt !workload workloads with
  | None ->
      Printf.eprintf "perfbench: unknown workload %S (one of %s)\n" !workload
        (String.concat ", " (List.map fst workloads));
      exit 2
  | Some w ->
      run w ~name:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
        ~t_start ~setup_only:!setup_only ~digests:!digests
