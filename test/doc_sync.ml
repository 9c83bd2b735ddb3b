(* Checks that docs/OBSERVABILITY.md and the metrics registry agree.

   The doc's "Metric reference" tables carry one row per instrument with
   the metric name in backticks in the first column. This program
   extracts those names and compares the set against what
   [Dpma_obs.Instruments] actually registers, in both directions:

   - a registered metric missing from the doc means the contract is
     incomplete;
   - a documented metric missing from the registry means the doc is
     stale (renamed or removed instrument).

   Usage: doc_sync.exe OBSERVABILITY.md [WEAK_EQUIVALENCE.md]
   Exits 0 and prints a one-line summary on success, 1 with the
   offending names otherwise. Wired into `dune runtest` (and the
   standalone @checkdocs alias) from test/dune.

   The optional second argument is the weak-equivalence contract doc
   (docs/WEAK_EQUIVALENCE.md). Its checks differ from the primary doc's:
   every metric it documents must exist in the registry (no stale rows),
   every registered `bisim.tau.*` instrument must appear in it (the
   tau-closure instruments are that doc's contract), and no
   duplicates — so the instrument rows cannot drift from the
   implementation. *)

let read_lines path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | line -> go (line :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

(* A documented metric row looks like   | `lts.states` | counter | ...
   Only table rows whose first cell is a single backticked token that
   contains a '.' count — prose mentions of metric names elsewhere in
   the doc (examples, guidance) are intentionally ignored. *)
let metric_of_table_row line =
  let line = String.trim line in
  if String.length line < 2 || line.[0] <> '|' then None
  else
    match String.index_opt line '`' with
    | None -> None
    | Some open_tick -> (
        (* The backtick must open the first cell: nothing but spaces
           between the leading '|' and it. *)
        let prefix = String.sub line 1 (open_tick - 1) in
        if String.trim prefix <> "" then None
        else
          match String.index_from_opt line (open_tick + 1) '`' with
          | None -> None
          | Some close_tick ->
              let name =
                String.sub line (open_tick + 1) (close_tick - open_tick - 1)
              in
              if String.contains name '.' && not (String.contains name ' ')
              then Some name
              else None)

let duplicates names =
  let seen = Hashtbl.create 64 in
  List.filter
    (fun n ->
      let d = Hashtbl.mem seen n in
      Hashtbl.replace seen n ();
      d)
    names

let () =
  let doc, weak_doc =
    match Sys.argv with
    | [| _; path |] -> (path, None)
    | [| _; path; weak |] -> (path, Some weak)
    | _ ->
        prerr_endline "usage: doc_sync.exe OBSERVABILITY.md [WEAK_EQUIVALENCE.md]";
        exit 2
  in
  Dpma_obs.Instruments.force ();
  let registered = Dpma_obs.Metrics.names () in
  let documented = List.filter_map metric_of_table_row (read_lines doc) in
  let missing_from_doc =
    List.filter (fun n -> not (List.mem n documented)) registered
  in
  let stale_in_doc =
    List.filter (fun n -> not (List.mem n registered)) documented
  in
  let fail = ref false in
  let report label names =
    if names <> [] then begin
      fail := true;
      Printf.eprintf "doc_sync: %s:\n" label;
      List.iter (Printf.eprintf "  %s\n") names
    end
  in
  report
    (Printf.sprintf "metrics registered but not documented in %s" doc)
    missing_from_doc;
  report
    (Printf.sprintf "metrics documented in %s but not registered" doc)
    stale_in_doc;
  report "metrics documented more than once" (duplicates documented);
  (match weak_doc with
  | None -> ()
  | Some wpath ->
      let wlines = read_lines wpath in
      let wdocumented = List.filter_map metric_of_table_row wlines in
      report
        (Printf.sprintf "metrics documented in %s but not registered" wpath)
        (List.filter (fun n -> not (List.mem n registered)) wdocumented);
      report
        (Printf.sprintf "bisim.tau.* metrics missing from %s" wpath)
        (List.filter
           (fun n ->
             String.starts_with ~prefix:"bisim.tau." n
             && not (List.mem n wdocumented))
           registered);
      report
        (Printf.sprintf "metrics documented more than once in %s" wpath)
        (duplicates wdocumented));
  if !fail then exit 1;
  Printf.printf "doc_sync: %d metrics, registry and %s%s agree\n"
    (List.length registered) (Filename.basename doc)
    (match weak_doc with
    | None -> ""
    | Some w -> " + " ^ Filename.basename w)
