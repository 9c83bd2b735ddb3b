(* Contract check for the bench JSON report: runs as part of @runtest via
   the rule in bench/dune. Reads a dpma.bench/1 document on stdin (the
   stdout of `main.exe tiny json`) and verifies that it parses and that
   the metrics array carries the headline instruments promised by
   docs/OBSERVABILITY.md. Exits non-zero with a diagnostic otherwise. *)

module Json = Dpma_obs.Json

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("check_json: " ^ s); exit 1) fmt

let read_all ic =
  let b = Buffer.create 4096 in
  (try
     while true do
       Buffer.add_channel b ic 4096
     done
   with End_of_file -> ());
  Buffer.contents b

(* Metric names that every pipeline run must populate. *)
let required =
  [
    "pa.terms";
    "pa.labels";
    "sos.memo.hits";
    "sos.memo.misses";
    "lts.states";
    "lts.transitions";
    "lts.par.rounds";
    "lts.par.frontier";
    "lts.par.derives_per_worker";
    "lts.par.merge.seconds";
    "lts.par.segments";
    "lts.par.segment_bytes_peak";
    "lts.spill.segments";
    "lts.spill.bytes";
    "lts.spill.write_seconds";
    "guard.polls";
    "guard.trips";
    "bisim.refine.rounds";
    "bisim.tau.components";
    "ni.product.states_pruned";
    "ni.product.rounds";
    "ni.product.secure_exits";
    "family.guard_words";
    "family.distinct_quotients";
    "family.solves_shared";
    "ctmc.states";
    "ctmc.solve.iterations";
    "ctmc.solve.residual";
    "sim.events";
    "sim.events_per_sec";
  ]

let () =
  let doc =
    match Json.parse (read_all stdin) with
    | Ok doc -> doc
    | Error msg -> fail "report does not parse: %s" msg
  in
  (match Json.member "schema" doc with
  | Some (Json.Str "dpma.bench/1") -> ()
  | Some j -> fail "unexpected schema %s" (Json.to_string j)
  | None -> fail "missing \"schema\" field");
  (* The job count the run was executed with (Pool.default_jobs) is part
     of the report metadata: scaling claims are meaningless without it. *)
  (match Json.member "jobs" doc with
  | Some (Json.Num v) when v >= 1.0 -> ()
  | Some j -> fail "\"jobs\" should be a positive number, got %s" (Json.to_string j)
  | None -> fail "missing \"jobs\" field");
  (* The perf-history note travels with every report. *)
  (match Json.member "notes" doc with
  | Some (Json.Str s) when String.length s > 0 -> ()
  | Some j -> fail "\"notes\" should be a non-empty string, got %s" (Json.to_string j)
  | None -> fail "missing \"notes\" field");
  (match Json.member "figures_wall_clock_s" doc with
  | Some (Json.Obj _) -> ()
  | _ -> fail "missing \"figures_wall_clock_s\" object");
  let studies =
    match Json.member "study_seconds" doc with
    | Some (Json.Obj _ as studies) -> studies
    | _ -> fail "missing \"study_seconds\" object"
  in
  let num study key =
    match Json.member study studies with
    | Some (Json.Obj _ as entry) -> (
        match Json.member key entry with
        | Some (Json.Num v) -> v
        | Some j ->
            fail "study_seconds.%s.%s should be a number, got %s" study key
              (Json.to_string j)
        | None -> fail "study_seconds.%s misses %s" study key)
    | _ -> fail "study_seconds misses study %s" study
  in
  let require_positive study keys =
    List.iter
      (fun key ->
        let v = num study key in
        if not (v > 0.0) then
          fail "study_seconds.%s.%s should be positive, got %g" study key v)
      keys
  in
  let jobs_legs metric = List.map (Printf.sprintf "%s.j%d" metric) [ 1; 2; 4 ] in
  (* Tiny runs time the two paper studies through the compiled core: the
     build, strong and lazy weak sweeps (legs checked bit-identical across
     job counts by the bench itself) and the noninterference hierarchy as
     assess runs it. *)
  List.iter
    (fun study ->
      require_positive study
        (jobs_legs "lts.build_seconds"
        @ jobs_legs "bisim.refine_seconds"
        @ jobs_legs "bisim.weak_refine_seconds"
        @ [ "ni.hierarchy_seconds" ]))
    [ "rpc"; "streaming" ];
  (* The streaming DPM-removed side strands unreachable states, so the
     product refiner's reachability pruning must have fired there. *)
  require_positive "streaming" [ "ni.states_pruned" ];
  (* The N-station scaling model: built at 1/2/4 jobs through the segment
     store, reporting its size and peak segment memory; the refinement
     sweeps run in tiny mode (smoke skips them on the full-size model to
     stay inside the timeout); the forced-spill differential leg must
     actually have spilled. *)
  require_positive "streaming_scaled"
    (jobs_legs "lts.build_seconds"
    @ jobs_legs "bisim.refine_seconds"
    @ jobs_legs "bisim.weak_refine_seconds"
    @ [ "lts.states"; "lts.transitions"; "lts.segment_bytes_peak";
        "lts.spill.segments"; "lts.spill.bytes"; "lts.spill.build_seconds" ]);
  (* The N-node ad hoc network chain: built once under a resident segment
     budget through the spill path, with a deliberately tripped
     wall-clock guard leg. *)
  require_positive "adhoc_net"
    [ "lts.build_seconds"; "lts.states"; "lts.transitions";
      "lts.segment_bytes_peak"; "lts.spill.segments"; "lts.spill.bytes";
      "guard.trips" ];
  (* The featured-family sweep: one shared build plus four
     per-configuration projections of the streaming awake-period family,
     raced against four independent pipelines. The bench itself aborts
     unless the featured leg wins, so here only the keys are required. *)
  require_positive "streaming_family"
    [ "family.configs"; "family.states"; "family.sharing_ratio";
      "family.build_seconds"; "family.project_seconds";
      "family.project_seconds.c0"; "family.project_seconds.c1";
      "family.project_seconds.c2"; "family.project_seconds.c3";
      "baseline.build_seconds"; "family.speedup" ];
  (* The thousand-configuration grid: featured build + projections +
     quotient-deduplicated solves raced against the per-member pipeline.
     The bench aborts on any value mismatch; here the contract is the
     keys, genuine solve sharing (strictly fewer distinct quotients than
     members), and the >= 2x speedup (the bench's own abort threshold). *)
  require_positive "family_scale"
    [ "family.configs"; "family.states"; "family.distinct_quotients";
      "family.solves_shared"; "family.guard_words"; "family.build_seconds";
      "family.project_seconds"; "family.analyze_seconds";
      "baseline.analyze_seconds"; "family.speedup" ];
  let num = num "family_scale" in
  if num "family.distinct_quotients" >= num "family.configs" then
    fail "family_scale: %g distinct quotients for %g members (no solve sharing)"
      (num "family.distinct_quotients")
      (num "family.configs");
  if num "family.speedup" < 2.0 then
    fail "family_scale: speedup %g, want >= 2" (num "family.speedup");
  let metrics =
    match Json.member "metrics" doc with
    | Some (Json.List items) -> items
    | _ -> fail "missing \"metrics\" array"
  in
  let name_of = function
    | Json.Obj _ as item -> (
        match Json.member "name" item with
        | Some (Json.Str n) -> n
        | _ -> fail "metric object without a string \"name\"")
    | j -> fail "metrics array holds a non-object: %s" (Json.to_string j)
  in
  let names = List.map name_of metrics in
  List.iter
    (fun n ->
      if not (List.mem n names) then fail "required metric %s is missing" n)
    required;
  (* Counters that must be non-zero after a tiny run. *)
  List.iter
    (fun n ->
      let item =
        List.find (fun item -> String.equal (name_of item) n) metrics
      in
      match Json.member "value" item with
      | Some (Json.Num v) when v > 0.0 -> ()
      | Some j -> fail "metric %s should be positive, got %s" n (Json.to_string j)
      | None -> fail "metric %s has no \"value\"" n)
    [ "lts.states"; "ctmc.states"; "sim.events"; "sos.memo.hits";
      "sos.memo.misses"; "lts.par.rounds"; "lts.par.segments";
      "lts.par.segment_bytes_peak";
      (* the weak pass must actually have run: it condenses the tau
         components it refines over *)
      "bisim.tau.components";
      (* the forced-spill legs and the deliberate guard trip of the tiny
         run must land in the central registry *)
      "lts.spill.segments"; "lts.spill.bytes"; "guard.polls";
      "guard.trips" ];
  print_endline "bench json report ok"
