(* Level-synchronous BFS engine shared by [Lts.build] and
   [Flts.build_family]. See explore.mli for the contract. *)

module Term = Dpma_pa.Term
module Rate = Dpma_pa.Rate
module Pool = Dpma_util.Pool
module Uid_tbl = Hashtbl.Make (Dpma_util.Hash.Int)
module I = Dpma_obs.Instruments
module M = Dpma_obs.Metrics

exception Too_many_states of int

type stats = {
  jobs : int;
  rounds : int;
  peak_frontier : int;
  merge_seconds : float;
  segments : int;
  segment_bytes_peak : int;
  spilled_segments : int;
  spilled_bytes : int;
  spill_write_seconds : float;
  build_seconds : float;
}

type t = {
  seeds : int array;
  num_states : int;
  term : int -> Term.t;
  row : int array;
  lab : int array;
  tgt : int array;
  rate_kind : int array;
  rate_val : float array;
  rate_prio : int array;
  guard : int array;
  stats : stats;
}

(* --- Segmented term store -------------------------------------------- *)

(* State terms accumulate in fixed-size segments instead of a
   grow-by-doubling array: no O(n) copy spikes while exploring. They stay
   resident (unlike the Segstore columns) because the frontier and the
   lazy state names read them at random, and they outlive the build, so
   a segment is 4096 entries (32 KiB): a few-dozen-state family build
   would otherwise keep a mostly empty 512 KiB segment alive. *)

let term_seg_bits = 12

let term_seg_size = 1 lsl term_seg_bits

let term_seg_mask = term_seg_size - 1

type term_store = {
  mutable t_segs : Term.t array array;
  mutable t_nsegs : int;
  mutable t_total : int;
}

let push_term st term =
  let i = st.t_total in
  let si = i lsr term_seg_bits in
  if si = st.t_nsegs then begin
    if si = Array.length st.t_segs then begin
      let bigger = Array.make (2 * si) [||] in
      Array.blit st.t_segs 0 bigger 0 si;
      st.t_segs <- bigger
    end;
    st.t_segs.(si) <- Array.make term_seg_size Term.stop;
    st.t_nsegs <- si + 1
  end;
  st.t_segs.(si).(i land term_seg_mask) <- term;
  st.t_total <- i + 1

let get_term st i = st.t_segs.(i lsr term_seg_bits).(i land term_seg_mask)

(* --- The exploration loop -------------------------------------------- *)

(* Below this frontier size a parallel round costs more in domain traffic
   (spawn + join is a couple of milliseconds per round) than it saves;
   derive in the coordinating domain instead. The cutoff scales with the
   job count because the spawn cost does, while the per-worker slice of a
   fixed frontier shrinks; on a machine that cannot run two domains at
   once no frontier is worth dealing out. Scheduling only — results are
   identical either way. *)
let par_round_threshold ~jobs =
  if Pool.hardware_parallelism () <= 1 then max_int else 256 * jobs

let run ?(max_states = 500_000) ?jobs ?par_threshold ?spill_dir
    ?max_resident_bytes ?seg_bits ~phase ~partial ~guards ~shard ~derive
    ~finish ~emit seeds =
  let t0 = Dpma_obs.Clock.now_s () in
  let jobs =
    match jobs with Some j -> max 1 j | None -> Pool.default_jobs ()
  in
  let par_threshold =
    match par_threshold with
    | Some t -> max 0 t
    | None -> par_round_threshold ~jobs
  in
  let pol = Segstore.policy ?spill_dir ?max_resident_bytes ?seg_bits () in
  (* The spill temp file must be gone on every exit — normal completion,
     Too_many_states, and a tripped resource guard alike. *)
  Fun.protect ~finally:(fun () -> Segstore.finish pol) @@ fun () ->
  (* Edge columns: label, target, rate kind, immediate priority, and the
     guard id when asked for; the rate value is the float column. *)
  let edges =
    Segstore.create pol ~int_cols:(if guards then 5 else 4) ~float_col:true
  in
  let rows = Segstore.create pol ~int_cols:1 ~float_col:false in
  (* Hash-consed terms: the state table is keyed by unique id. *)
  let table : int Uid_tbl.t = Uid_tbl.create 1024 in
  let terms = { t_segs = Array.make 4 [||]; t_nsegs = 0; t_total = 0 } in
  let id_of (term : Term.t) =
    match Uid_tbl.find_opt table term.Term.uid with
    | Some id -> id
    | None ->
        let id = terms.t_total in
        if id >= max_states then raise (Too_many_states max_states);
        Uid_tbl.add table term.Term.uid id;
        push_term terms term;
        id
  in
  let push label (rate : Rate.t) target g =
    let target = id_of target in
    let seg, o = Segstore.push_slot edges in
    let ints = seg.Segstore.ints in
    ints.(0).(o) <- label;
    ints.(1).(o) <- target;
    if guards then ints.(4).(o) <- g;
    match rate with
    | Rate.Exp lambda ->
        ints.(2).(o) <- 1;
        seg.Segstore.floats.(o) <- lambda
    | Rate.Imm { prio; weight } ->
        ints.(2).(o) <- 2;
        ints.(3).(o) <- prio;
        seg.Segstore.floats.(o) <- weight
    | Rate.Passive { weight } ->
        ints.(2).(o) <- 3;
        seg.Segstore.floats.(o) <- weight
  in
  let seeds = Array.map id_of seeds in
  let rounds = ref 0 and peak_frontier = ref 0 and merge_s = ref 0.0 in
  let partial () =
    partial
    @ [ ("states", float_of_int terms.t_total);
        ("transitions", float_of_int (Segstore.total edges));
        ("rounds", float_of_int !rounds) ]
  in
  let emit_state d =
    let seg, o = Segstore.push_slot rows in
    seg.Segstore.ints.(0).(o) <- Segstore.total edges;
    emit push d
  in
  (* States are numbered in merge order, so the frontier of a round is
     always a contiguous id range: the states appended by the previous
     round. In a parallel round, workers derive successors of frontier
     slices into private buffers (with private memo shards); the
     coordinator then emits the slices in frontier order, which pins
     state numbering and edge order to the sequential ones for any job
     count. A round run in the coordinating domain emits each state as
     soon as it is derived, so its derivation dies young instead of
     waiting, promoted, for the rest of the frontier. *)
  let lo = ref 0 in
  while !lo < terms.t_total do
    Dpma_util.Guard.poll ~partial ~phase ();
    let hi = terms.t_total in
    incr rounds;
    let fsize = hi - !lo in
    if fsize > !peak_frontier then peak_frontier := fsize;
    M.observe I.lts_par_frontier (float_of_int fsize);
    let base = !lo in
    if jobs = 1 || fsize < par_threshold then begin
      let w = shard () in
      let next = ref base in
      (try
         while !next < hi do
           let d = derive w (get_term terms !next) in
           incr next;
           emit_state d
         done
       with Too_many_states _ as e ->
         (* A parallel round derives its whole frontier before it emits,
            so a derivation error of the round takes precedence. *)
         for i = !next to hi - 1 do
           ignore (derive w (get_term terms i))
         done;
         raise e);
      finish w
    end
    else begin
      let frontier = Array.init fsize (fun i -> get_term terms (base + i)) in
      let derived =
        Pool.map_chunks_ordered ~jobs
          ~chunk:(Pool.recommended_chunk ~n:fsize ~jobs)
          ~init:shard ~f:derive ~finish frontier
      in
      let tm = Dpma_obs.Clock.now_s () in
      Array.iter emit_state derived;
      merge_s := !merge_s +. (Dpma_obs.Clock.now_s () -. tm)
    end;
    lo := hi
  done;
  let n = terms.t_total in
  let nedges = Segstore.total edges in
  (* Compact the segments into the flat CSR arrays, once; spilled
     segments are read back from the temp file here, bit-identical. *)
  let t_pack = Dpma_obs.Clock.now_s () in
  let row = Array.make (n + 1) 0 in
  Segstore.compact_into rows ~ints:[| row |] ~floats:[||] ~n;
  row.(n) <- nedges;
  let col () = Array.make nedges 0 in
  let lab = col () and tgt = col () and rate_kind = col ()
  and rate_prio = col () in
  let guard = if guards then col () else [||] in
  let rate_val = Array.make nedges 0.0 in
  Segstore.compact_into edges
    ~ints:(if guards then [| lab; tgt; rate_kind; rate_prio; guard |]
           else [| lab; tgt; rate_kind; rate_prio |])
    ~floats:[| rate_val |] ~n:nedges;
  M.observe I.lts_csr_pack_seconds (Dpma_obs.Clock.now_s () -. t_pack);
  M.add I.lts_par_rounds !rounds;
  M.observe I.lts_par_merge_seconds !merge_s;
  let segments = Segstore.nsegs edges + Segstore.nsegs rows + terms.t_nsegs in
  let sp = Segstore.stats pol in
  (* Resident high-water of the edge/row segments (spilled segments leave
     it), plus the term segments, which are only freed at the end. *)
  let segment_bytes_peak =
    sp.Segstore.resident_bytes_peak + (terms.t_nsegs * 8 * term_seg_size)
  in
  M.add I.lts_par_segments segments;
  M.set I.lts_par_segment_bytes (float_of_int segment_bytes_peak);
  Segstore.record_metrics pol;
  { seeds; num_states = n; term = get_term terms; row; lab; tgt; rate_kind;
    rate_val; rate_prio; guard;
    stats =
      { jobs; rounds = !rounds; peak_frontier = !peak_frontier;
        merge_seconds = !merge_s; segments; segment_bytes_peak;
        spilled_segments = sp.Segstore.spilled_segments;
        spilled_bytes = sp.Segstore.spilled_bytes;
        spill_write_seconds = sp.Segstore.spill_write_seconds;
        build_seconds = Dpma_obs.Clock.now_s () -. t0 } }
