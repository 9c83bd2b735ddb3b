(* Featured LTS: one union state-space build for a family of
   configurations, guards packed alongside the CSR, per-configuration
   projection. See flts.mli for the bit-identity contract. *)

module Term = Dpma_pa.Term
module Feature = Dpma_pa.Feature
module Pool = Dpma_util.Pool

(* --- Interned feature guards ----------------------------------------- *)

module Guard = struct
  (* Guards are packed bitsets over the configuration indices: 63 usable
     bits per OCaml int word, so a 1024-configuration family needs 17
     words per distinct guard instead of a sorted index array whose size
     grows with the set. Intern cost is O(words). *)

  let bits_per_word = 63

  (* Mixed hash: a one-configuration guard is a single bit, often above
     the bucket mask, so an unmixed fold leaves the bucket bits alone. *)
  module Tbl = Hashtbl.Make (Dpma_util.Hash.Ints)

  type table = {
    nconfigs : int;
    words : int;  (* payload words per guard *)
    ids : int Tbl.t;
    mutable rev : int array array;  (* id -> packed bitset *)
    mutable count : int;
  }

  let all = 0

  let add t bits =
    let id = t.count in
    if id = Array.length t.rev then begin
      let bigger = Array.make (2 * id) [||] in
      Array.blit t.rev 0 bigger 0 id;
      t.rev <- bigger
    end;
    t.rev.(id) <- bits;
    t.count <- id + 1;
    Tbl.add t.ids bits id;
    id

  let create ~nconfigs =
    if nconfigs < 1 then
      invalid_arg "Flts.Guard.create: need at least one configuration";
    let words = (nconfigs + bits_per_word - 1) / bits_per_word in
    let t =
      { nconfigs; words; ids = Tbl.create 64; rev = Array.make 8 [||];
        count = 0 }
    in
    (* The full set: every valid bit on. A full 63-bit word is [-1] (all
       bits set on a 63-bit int); a partial last word masks to the
       remaining configurations. *)
    let full = Array.make words (-1) in
    let r = nconfigs mod bits_per_word in
    if r <> 0 then full.(words - 1) <- (1 lsl r) - 1;
    ignore (add t full : int);
    t

  let validate t cfgs =
    let n = Array.length cfgs in
    for i = 0 to n - 1 do
      let c = cfgs.(i) in
      if c < 0 || c >= t.nconfigs then
        invalid_arg "Flts.Guard.intern: configuration index out of range";
      if i > 0 && cfgs.(i - 1) >= c then
        invalid_arg "Flts.Guard.intern: configurations must be sorted strictly"
    done

  (* Intern an already-packed payload; takes ownership of [bits]. *)
  let intern_bits t bits =
    match Tbl.find_opt t.ids bits with Some id -> id | None -> add t bits

  let intern t cfgs =
    (* Packing is order-insensitive, so validate unconditionally to keep
       the sorted-input contract observable even on hits. *)
    validate t cfgs;
    let bits = Array.make t.words 0 in
    Array.iter
      (fun c ->
        bits.(c / bits_per_word) <-
          bits.(c / bits_per_word) lor (1 lsl (c mod bits_per_word)))
      cfgs;
    intern_bits t bits

  let cardinal t g =
    let bits = t.rev.(g) in
    let n = ref 0 in
    for w = 0 to t.words - 1 do
      (* Kernighan popcount; clears the lowest set bit each step, which
         is sign-safe on full (-1) words. *)
      let x = ref bits.(w) in
      while !x <> 0 do
        x := !x land (!x - 1);
        incr n
      done
    done;
    !n

  (* Bit index of a single-bit word (binary search; the sign bit of a
     63-bit word is bit 62). *)
  let bit_index b =
    let rec go r b k =
      if k = 0 then r
      else if b lsr k <> 0 then go (r + k) (b lsr k) (k / 2)
      else go r b (k / 2)
    in
    go 0 b 32

  (* [f] on every configuration of [g], ascending; one step per set bit. *)
  let iter t g f =
    let bits = t.rev.(g) in
    for w = 0 to t.words - 1 do
      let x = ref bits.(w) in
      while !x <> 0 do
        let low = !x land - !x in
        f ((w * bits_per_word) + bit_index low);
        x := !x lxor low
      done
    done

  let configs t g =
    let out = Array.make (cardinal t g) 0 in
    let n = ref 0 in
    iter t g (fun c ->
        out.(!n) <- c;
        incr n);
    out

  let mem t g c =
    g = all
    || t.rev.(g).(c / bits_per_word) land (1 lsl (c mod bits_per_word)) <> 0

  let count t = t.count
  let table_words t = t.count * t.words
end

(* --- The featured system --------------------------------------------- *)

type t = {
  nconfigs : int;
  num_states : int;
  init : int array;
  row : int array;
  lab : int array;
  tgt : int array;
  rate_kind : int array;
  rate_val : float array;
  rate_prio : int array;
  guard : int array;
  guards : Guard.table;
  term : int -> Term.t;
}

type family_stats = {
  build : Lts.build_stats;
  guard_count : int;
  guard_words : int;
}

let num_transitions t = Array.length t.lab

let build_family ?max_states ?jobs ?par_threshold ?spill_dir
    ?max_resident_bytes ?seg_bits specs =
  Dpma_obs.Trace.with_span "family.build" (fun () ->
  let t0 = Dpma_obs.Clock.now_s () in
  let nconfigs = Array.length specs in
  if nconfigs = 0 then invalid_arg "Flts.build_family: empty family";
  let fe = Feature.make specs in
  let guards = Guard.create ~nconfigs in
  (* Seeded with every configuration's initial term; hash-consing
     deduplicates structurally equal initials in configuration order.
     Groups are emitted in frontier order, which pins guard interning
     order for any job count. *)
  let x =
    Explore.run ?max_states ?jobs ?par_threshold ?spill_dir
      ?max_resident_bytes ?seg_bits ~phase:"family.build"
      ~partial:[ ("configs", float_of_int nconfigs) ]
      ~guards:true
      ~shard:(fun () -> Feature.shard fe)
      ~derive:Feature.derive_in ~finish:Feature.merge_shard
      ~emit:(fun push groups ->
        List.iter
          (fun (g : Feature.group) ->
            let gid = Guard.intern guards g.Feature.configs in
            List.iter
              (fun (label, rate, k) -> push label rate k gid)
              g.Feature.steps)
          groups)
      (Feature.inits fe)
  in
  let fam =
    { nconfigs; num_states = x.Explore.num_states; init = x.Explore.seeds;
      row = x.Explore.row; lab = x.Explore.lab; tgt = x.Explore.tgt;
      rate_kind = x.Explore.rate_kind; rate_val = x.Explore.rate_val;
      rate_prio = x.Explore.rate_prio; guard = x.Explore.guard; guards;
      term = x.Explore.term }
  in
  (* The family's sensitivity analysis ([Feature.make]) is build time too. *)
  let build =
    { x.Explore.stats with Lts.build_seconds = Dpma_obs.Clock.now_s () -. t0 }
  in
  let module I = Dpma_obs.Instruments in
  let module M = Dpma_obs.Metrics in
  M.incr I.family_builds;
  M.set I.family_configs (float_of_int nconfigs);
  M.set I.family_states (float_of_int fam.num_states);
  M.set I.family_edges (float_of_int (num_transitions fam));
  M.set I.family_guards (float_of_int (Guard.count guards));
  M.set I.family_guard_words (float_of_int (Guard.table_words guards));
  M.observe I.family_build_seconds build.Lts.build_seconds;
  let stats = Feature.sos_stats fe in
  M.add I.sos_memo_hits stats.Dpma_pa.Semantics.hits;
  M.add I.sos_memo_misses stats.Dpma_pa.Semantics.misses;
  ( fam,
    { build; guard_count = Guard.count guards;
      guard_words = Guard.table_words guards } ))

(* --- Per-configuration projection ------------------------------------ *)

(* A state's edges are one contiguous run per derivation group, and the
   groups are disjoint, so at most one run of a state admits a given
   configuration. [run_end t lo stop] is the end of the run starting at
   edge [lo] of a state whose edges stop at [stop]. *)
let run_end t lo stop =
  let g = t.guard.(lo) in
  let hi = ref (lo + 1) in
  while !hi < stop && t.guard.(!hi) = g do
    incr hi
  done;
  !hi

(* The start of the run of [s] that admits [c], or [-1]: one
   [Guard.mem] per run up to the admitting one. *)
let scan_run t s c =
  let stop = t.row.(s + 1) in
  let rec find lo =
    if lo >= stop then -1
    else if Guard.mem t.guards t.guard.(lo) c then lo
    else find (run_end t lo stop)
  in
  find t.row.(s)

(* Words the run index of [project_all] may hold; states past the budget
   keep the run scan. The 1024-member grid needs 15 * 1024. *)
let index_budget = 1 lsl 22

(* For each state with more than one run (within the budget), the start
   of every configuration's run ([-1] for none), filled by walking each
   run's guard bits once; [[||]] for the other states. *)
let run_index t =
  let index = Array.make t.num_states [||] in
  let budget = ref index_budget in
  for s = 0 to t.num_states - 1 do
    let lo = t.row.(s) and stop = t.row.(s + 1) in
    if lo < stop && run_end t lo stop < stop && !budget >= t.nconfigs then begin
      budget := !budget - t.nconfigs;
      let starts = Array.make t.nconfigs (-1) in
      let rec fill lo =
        if lo < stop then begin
          Guard.iter t.guards t.guard.(lo) (fun c -> starts.(c) <- lo);
          fill (run_end t lo stop)
        end
      in
      fill lo;
      index.(s) <- starts
    end
  done;
  index

(* One worker's reusable buffers: [map] (union state -> member state,
   [-1] when unvisited) is reset after each member through the member's
   own states, so a projection costs what the member holds. *)
type scratch = {
  map : int array;
  mutable order : int array;  (* member state -> union state *)
  mutable lo : int array;  (* member state -> its run [lo, hi) *)
  mutable hi : int array;
}

let scratch t =
  { map = Array.make t.num_states (-1); order = Array.make 64 0;
    lo = Array.make 64 0; hi = Array.make 64 0 }

let grow sc =
  let n = Array.length sc.order in
  let bigger a =
    let b = Array.make (2 * n) 0 in
    Array.blit a 0 b 0 n;
    b
  in
  sc.order <- bigger sc.order;
  sc.lo <- bigger sc.lo;
  sc.hi <- bigger sc.hi

(* FIFO traversal from the configuration's initial state following only
   the run that admits it: discovery order reproduces the
   level-synchronous numbering of [Lts.build], and that run is the
   configuration's own derivation list (see flts.mli), so the result is
   bit-identical to [Lts.of_spec]. The first pass numbers the states, the
   second copies the runs into exact-size CSR arrays. *)
let project_with t ~run sc c =
  let t0 = Dpma_obs.Clock.now_s () in
  let map = sc.map in
  let n = ref 0 in
  let visit s =
    if map.(s) < 0 then begin
      if !n = Array.length sc.order then grow sc;
      sc.order.(!n) <- s;
      map.(s) <- !n;
      incr n
    end
  in
  visit t.init.(c);
  let m = ref 0 in
  let i = ref 0 in
  while !i < !n do
    let s = sc.order.(!i) in
    let lo = run s c in
    let hi = if lo < 0 then lo else run_end t lo t.row.(s + 1) in
    sc.lo.(!i) <- lo;
    sc.hi.(!i) <- hi;
    for e = lo to hi - 1 do
      visit t.tgt.(e)
    done;
    m := !m + (hi - lo);
    incr i
  done;
  let n = !n and m = !m in
  let row = Array.make (n + 1) m in
  let lab = Array.make m 0 and tgt = Array.make m 0 in
  let rate_kind = Array.make m 0 and rate_prio = Array.make m 0 in
  let rate_val = Array.make m 0.0 in
  let e = ref 0 in
  for i = 0 to n - 1 do
    row.(i) <- !e;
    let lo = sc.lo.(i) in
    let len = sc.hi.(i) - lo in
    if len > 0 then begin
      let e0 = !e in
      Array.blit t.lab lo lab e0 len;
      Array.blit t.rate_kind lo rate_kind e0 len;
      Array.blit t.rate_val lo rate_val e0 len;
      Array.blit t.rate_prio lo rate_prio e0 len;
      for k = 0 to len - 1 do
        tgt.(e0 + k) <- map.(t.tgt.(lo + k))
      done;
      e := e0 + len
    end
  done;
  let order = Array.sub sc.order 0 n in
  Array.iter (fun s -> map.(s) <- -1) order;
  let term = t.term in
  let lts =
    Lts.of_csr ~init:0
      ~state_name:(fun i -> Term.to_string (term order.(i)))
      ~row ~lab ~tgt ~rate_kind ~rate_val ~rate_prio
  in
  Dpma_obs.Metrics.observe Dpma_obs.Instruments.family_project_seconds
    (Dpma_obs.Clock.now_s () -. t0);
  lts

(* One [family.project] span per call, however many members it projects. *)
let project_span members f =
  let module Trace = Dpma_obs.Trace in
  Trace.with_span "family.project" ~attrs:[ ("members", Trace.Int members) ] f

let project t c =
  if c < 0 || c >= t.nconfigs then
    invalid_arg "Flts.project: configuration index out of range";
  project_span 1 (fun () -> project_with t ~run:(scan_run t) (scratch t) c)

let project_all ?jobs t =
  project_span t.nconfigs @@ fun () ->
  let index = run_index t in
  let run s c =
    let starts = index.(s) in
    if Array.length starts > 0 then starts.(c) else scan_run t s c
  in
  (* One job unless asked for more: on a 2-vCPU host a second domain
     made the call slower at every family size measured, up to 4096
     members over 22 union states (about 0.1 us per member and union
     state, against about a millisecond to spawn and join a domain). *)
  let arr =
    Pool.map_chunks_ordered ~jobs:(Option.value jobs ~default:1)
      ~init:(fun () -> scratch t)
      ~f:(project_with t ~run)
      (Array.init t.nconfigs Fun.id)
  in
  let total =
    Array.fold_left (fun acc (l : Lts.t) -> acc + l.Lts.num_states) 0 arr
  in
  if total > 0 then
    Dpma_obs.Metrics.set Dpma_obs.Instruments.family_sharing_ratio
      (float_of_int t.num_states /. float_of_int total);
  arr
