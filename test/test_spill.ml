(* Spill-to-disk and resource-guard tests.

   The segment store must produce bit-identical CSR arrays whether or
   not segments spill to the temp file, for any job count (the spill
   policy only moves full segments to disk; it never touches numbering
   or edge order). Guards must abort long phases with a structured trip
   carrying partial progress, clear themselves so the rest of the run
   proceeds, and never leave spill temp files behind — on success or on
   abort. *)

module Lts = Dpma_lts.Lts
module Flts = Dpma_lts.Flts
module Bisim = Dpma_lts.Bisim
module Segstore = Dpma_lts.Segstore
module Guard = Dpma_util.Guard
module Rpc = Dpma_models.Rpc
module Streaming = Dpma_models.Streaming
module Elaborate = Dpma_adl.Elaborate
module Json = Dpma_obs.Json

let rpc_spec =
  lazy
    (Rpc.elaborate ~mode:Rpc.Markovian ~monitors:true Rpc.default_params)
      .Elaborate.spec

let streaming_spec =
  lazy
    (Streaming.elaborate ~mode:Streaming.Markovian ~monitors:true
       Streaming.default_params)
      .Elaborate.spec

(* Same single-station scaled instance as test_parallel_build.ml: 13551
   states — big enough to cross hundreds of 256-slot segments, small
   enough for a quick differential. *)
let scaled_spec =
  lazy
    (Streaming.scaled_spec
       {
         Streaming.stations = 1;
         Streaming.radio_channel = true;
         Streaming.station =
           {
             Streaming.default_params with
             Streaming.ap_buffer_size = 8;
             Streaming.client_buffer_size = 8;
           };
       })

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

let with_spill_dir f =
  let dir = Filename.temp_dir "dpma-test" ".spill" in
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun file -> Sys.remove (Filename.concat dir file))
        (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () -> f dir)

let check_dir_empty name dir =
  Alcotest.(check int) (name ^ ": no temp files left") 0
    (Array.length (Sys.readdir dir))

(* Every model small enough for the suite: in-memory build vs a build
   with a zero resident budget and 256-slot segments (so even a
   500-state model crosses many segment boundaries), at 1, 2 and 4
   jobs. Deterministic merge + exact word round-trip means the packed
   CSR must be bit-identical. *)
let spill_differential name spec () =
  let spec = Lazy.force spec in
  let reference = Lts.of_spec spec in
  with_spill_dir @@ fun dir ->
  List.iter
    (fun jobs ->
      let lts, st =
        Lts.build ~jobs ~par_threshold:0 ~spill_dir:dir ~max_resident_bytes:0
          ~seg_bits:8 spec
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s: spilled at j%d" name jobs)
        true
        (st.Lts.spilled_segments > 0);
      Alcotest.(check bool)
        (Printf.sprintf "%s: spilled bytes accounted at j%d" name jobs)
        true
        (st.Lts.spilled_bytes >= st.Lts.spilled_segments * 256 * 8);
      check_csr_identical (Printf.sprintf "%s j%d" name jobs) reference lts)
    [ 1; 2; 4 ];
  check_dir_empty name dir

(* The CLI's spill path leaves [seg_bits] at its default: the segments
   spilled and read back there are the production size. *)
let test_default_segment_spill () =
  let spec = Lazy.force streaming_spec in
  with_spill_dir @@ fun dir ->
  let lts, st = Lts.build ~spill_dir:dir ~max_resident_bytes:0 spec in
  Alcotest.(check bool) "spilled at the default segment size" true
    (st.Lts.spilled_segments > 1);
  check_csr_identical "default segments" (Lts.of_spec spec) lts;
  check_dir_empty "default segments" dir

(* The family union build through the same store: spilled and in-memory
   featured systems must agree on every projection. *)
let test_family_spill_differential () =
  let specs =
    Array.of_list
      (List.map
         (fun a ->
           (Streaming.elaborate ~mode:Streaming.Markovian ~monitors:true
              { Streaming.default_params with Streaming.awake_period_mean = a })
             .Elaborate.spec)
         [ 100.0; 400.0 ])
  in
  let reference = fst (Flts.build_family specs) in
  with_spill_dir @@ fun dir ->
  let fam, st =
    Flts.build_family ~spill_dir:dir ~max_resident_bytes:0 ~seg_bits:8 specs
  in
  Alcotest.(check bool) "family spilled" true (st.Flts.build.Lts.spilled_segments > 0);
  Alcotest.(check int) "family states" reference.Flts.num_states
    fam.Flts.num_states;
  for c = 0 to Array.length specs - 1 do
    check_csr_identical
      (Printf.sprintf "family config %d" c)
      (Flts.project reference c) (Flts.project fam c)
  done;
  check_dir_empty "family" dir

(* Ambient defaults: a build with no explicit spill arguments must pick
   up Segstore.set_defaults — that is how the dpma/bench flags reach
   builds deep inside the pipeline. *)
let test_ambient_defaults () =
  with_spill_dir @@ fun dir ->
  Segstore.set_defaults ~spill_dir:dir ~max_resident_bytes:0 ();
  Fun.protect ~finally:(fun () -> Segstore.set_defaults ())
  @@ fun () ->
  let lts, st = Lts.build ~seg_bits:8 (Lazy.force rpc_spec) in
  Alcotest.(check bool) "ambient spill used" true (st.Lts.spilled_segments > 0);
  check_csr_identical "ambient" (Lts.of_spec (Lazy.force rpc_spec)) lts;
  check_dir_empty "ambient" dir

let expect_trip f =
  match f () with
  | _ -> Alcotest.fail "expected Resource_exceeded"
  | exception Guard.Resource_exceeded trip -> trip

(* An exhausted wall-clock budget trips at the first BFS round with the
   build's partial progress attached, clears the ambient guard, and the
   next build runs unguarded. *)
let test_wall_clock_trip () =
  Guard.install (Guard.create ~max_seconds:0.0 ());
  let trip =
    expect_trip (fun () -> Lts.build (Lazy.force rpc_spec))
  in
  Alcotest.(check bool) "wall clock" true (trip.Guard.resource = Guard.Wall_clock);
  Alcotest.(check string) "phase" "lts.build" trip.Guard.phase;
  Alcotest.(check bool) "partial states reported" true
    (List.mem_assoc "states" trip.Guard.partial);
  Alcotest.(check bool) "partial rounds reported" true
    (List.mem_assoc "rounds" trip.Guard.partial);
  Alcotest.(check bool) "guard cleared by the trip" false (Guard.installed ());
  ignore (Lts.build (Lazy.force rpc_spec))

(* Same for the memory budget: one byte of major heap is always already
   exceeded, so the trip fires on the first poll. *)
let test_memory_trip () =
  Guard.install (Guard.create ~max_resident_bytes:1 ());
  let trip = expect_trip (fun () -> Lts.build (Lazy.force rpc_spec)) in
  Alcotest.(check bool) "memory" true
    (trip.Guard.resource = Guard.Resident_memory);
  Alcotest.(check bool) "actual above limit" true (trip.Guard.actual > trip.Guard.limit);
  Alcotest.(check bool) "guard cleared" false (Guard.installed ())

(* The refinement loop polls too (phase bisim.refine), and the family
   builder under its own phase name. *)
let test_refine_and_family_phases () =
  let lts = Lts.of_spec (Lazy.force rpc_spec) in
  let trip =
    Guard.with_guard (Guard.create ~max_seconds:0.0 ()) @@ fun () ->
    expect_trip (fun () -> Bisim.strong_partition lts)
  in
  Alcotest.(check string) "refine phase" "bisim.refine" trip.Guard.phase;
  let trip =
    Guard.with_guard (Guard.create ~max_seconds:0.0 ()) @@ fun () ->
    expect_trip (fun () -> fst (Flts.build_family [| Lazy.force rpc_spec |]))
  in
  Alcotest.(check string) "family phase" "family.build" trip.Guard.phase

(* A guard trip mid-build with spill active must still remove the temp
   file: the builder's cleanup runs on the abort path as well as on
   success. [max_seconds:0] trips at the second poll (first round builds
   some segments first, thanks to par_threshold/seg_bits tuning the
   first frontier round still spills). *)
let test_abort_removes_temp_files () =
  with_spill_dir @@ fun dir ->
  Guard.install (Guard.create ~max_resident_bytes:1 ());
  let _trip =
    expect_trip (fun () ->
        Lts.build ~spill_dir:dir ~max_resident_bytes:0 ~seg_bits:8
          (Lazy.force rpc_spec))
  in
  check_dir_empty "abort" dir;
  (* The Too_many_states abort path cleans up the same way. *)
  (try
     ignore
       (Lts.build ~max_states:10 ~spill_dir:dir ~max_resident_bytes:0
          ~seg_bits:8 (Lazy.force rpc_spec));
     Alcotest.fail "expected Too_many_states"
   with Lts.Too_many_states _ -> ());
  check_dir_empty "too-many-states abort" dir

let test_verdict_shape () =
  let trip =
    { Guard.resource = Guard.Wall_clock; phase = "lts.build"; limit = 1.5;
      actual = 2.5; partial = [ ("states", 42.0) ] }
  in
  let doc = Guard.verdict_json trip in
  let str k =
    match Json.member k doc with Some (Json.Str s) -> s | _ -> "?"
  in
  Alcotest.(check string) "schema" "dpma.degraded/1" (str "schema");
  Alcotest.(check string) "verdict" "degraded" (str "verdict");
  Alcotest.(check string) "resource" "wall_clock" (str "resource");
  Alcotest.(check string) "phase" "lts.build" (str "phase");
  (match Json.member "partial" doc with
  | Some (Json.Obj [ ("states", Json.Num 42.0) ]) -> ()
  | _ -> Alcotest.fail "partial progress missing from the verdict");
  (* The one-line rendering parses back. *)
  (match Json.parse (Guard.verdict_line trip) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("verdict_line does not parse: " ^ e))

let test_guard_validation () =
  (try
     ignore (Guard.create ~max_seconds:(-1.0) ());
     Alcotest.fail "negative max_seconds accepted"
   with Invalid_argument _ -> ());
  (try
     ignore (Guard.create ~max_resident_bytes:(-1) ());
     Alcotest.fail "negative max_resident_bytes accepted"
   with Invalid_argument _ -> ())

let test_seg_bits_validation () =
  List.iter
    (fun bad ->
      try
        ignore (Segstore.policy ~seg_bits:bad ());
        Alcotest.fail "out-of-range seg_bits accepted"
      with Invalid_argument _ -> ())
    [ 3; 25 ]

let suite =
  [
    Alcotest.test_case "rpc spill differential" `Quick
      (spill_differential "rpc" rpc_spec);
    Alcotest.test_case "streaming spill differential" `Quick
      (spill_differential "streaming" streaming_spec);
    Alcotest.test_case "scaled spill differential" `Quick
      (spill_differential "streaming_scaled" scaled_spec);
    Alcotest.test_case "family spill differential" `Quick
      test_family_spill_differential;
    Alcotest.test_case "ambient spill defaults" `Quick test_ambient_defaults;
    Alcotest.test_case "wall-clock guard trip" `Quick test_wall_clock_trip;
    Alcotest.test_case "memory guard trip" `Quick test_memory_trip;
    Alcotest.test_case "refine and family phases poll" `Quick
      test_refine_and_family_phases;
    Alcotest.test_case "abort removes temp files" `Quick
      test_abort_removes_temp_files;
    Alcotest.test_case "degraded verdict shape" `Quick test_verdict_shape;
    Alcotest.test_case "guard validation" `Quick test_guard_validation;
    Alcotest.test_case "seg_bits validation" `Quick test_seg_bits_validation;
    Alcotest.test_case "default segment size spill" `Quick
      test_default_segment_spill;
  ]
