(* Featured LTS: one union state-space build for a family of
   configurations, guards packed alongside the CSR, per-configuration
   projection. See flts.mli for the bit-identity contract. *)

module Term = Dpma_pa.Term
module Rate = Dpma_pa.Rate
module Feature = Dpma_pa.Feature
module Pool = Dpma_util.Pool

(* --- Interned feature guards ----------------------------------------- *)

module Guard = struct
  (* Guards are packed bitsets over the configuration indices: 63 usable
     bits per OCaml int word, so a 1024-configuration family needs 17
     words per distinct guard instead of a sorted index array whose size
     grows with the set. Intern/conjunction cost is O(words). *)

  let bits_per_word = 63

  module Key = struct
    type t = int array

    let equal a b =
      a == b
      || Array.length a = Array.length b
         &&
         let rec eq i = i < 0 || (a.(i) = b.(i) && eq (i - 1)) in
         eq (Array.length a - 1)

    (* Mixed: a one-configuration guard is a single bit, often above the
       bucket mask, so an unmixed fold leaves the bucket bits alone. *)
    let hash = Dpma_util.Hash.ints
  end

  module Tbl = Hashtbl.Make (Key)

  module Pair_key = struct
    type t = int * int

    let equal (a1, b1) (a2, b2) = a1 = a2 && b1 = b2
    let hash (a, b) = (a * 0x9e3779b1) lxor b land max_int
  end

  module Pair_tbl = Hashtbl.Make (Pair_key)

  type table = {
    nconfigs : int;
    words : int;  (* payload words per guard *)
    ids : int Tbl.t;
    mutable rev : int array array;  (* id -> packed bitset *)
    mutable count : int;
    inter_memo : int Pair_tbl.t;  (* (lo id, hi id) -> conjunction id *)
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
        count = 0; inter_memo = Pair_tbl.create 64 }
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

  let configs t g =
    let bits = t.rev.(g) in
    let out = Array.make (cardinal t g) 0 in
    let n = ref 0 in
    for w = 0 to t.words - 1 do
      let word = bits.(w) in
      if word <> 0 then
        for b = 0 to bits_per_word - 1 do
          if word land (1 lsl b) <> 0 then begin
            out.(!n) <- (w * bits_per_word) + b;
            incr n
          end
        done
    done;
    out

  let mem t g c =
    g = all
    || t.rev.(g).(c / bits_per_word) land (1 lsl (c mod bits_per_word)) <> 0

  let inter t ga gb =
    if ga = gb then ga
    else if ga = all then gb
    else if gb = all then ga
    else begin
      let key = if ga < gb then (ga, gb) else (gb, ga) in
      match Pair_tbl.find_opt t.inter_memo key with
      | Some id -> id
      | None ->
          let a = t.rev.(ga) and b = t.rev.(gb) in
          let bits = Array.make t.words 0 in
          for w = 0 to t.words - 1 do
            bits.(w) <- a.(w) land b.(w)
          done;
          let id = intern_bits t bits in
          Pair_tbl.add t.inter_memo key id;
          id
    end

  let count t = t.count
  let words t = t.words
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

let project t c =
  if c < 0 || c >= t.nconfigs then
    invalid_arg "Flts.project: configuration index out of range";
  Dpma_obs.Trace.with_span "family.project" (fun () ->
  let t0 = Dpma_obs.Clock.now_s () in
  (* FIFO traversal from the configuration's initial state following only
     the edges whose guard admits it: discovery order reproduces the
     level-synchronous numbering of [Lts.build], and the guard-filtered
     edge list of each state is that configuration's own derivation list
     (see flts.mli), so the result is bit-identical to [Lts.of_spec].
     A state's edges are one contiguous run per derivation group, and
     the groups are disjoint, so one membership test per run finds the
     only run that admits [c]. *)
  let map = Array.make t.num_states (-1) in
  let order = ref (Array.make 1024 0) in
  let n = ref 0 in
  let id_of s =
    if map.(s) >= 0 then map.(s)
    else begin
      let id = !n in
      incr n;
      if id = Array.length !order then begin
        let bigger = Array.make (2 * id) 0 in
        Array.blit !order 0 bigger 0 id;
        order := bigger
      end;
      !order.(id) <- s;
      map.(s) <- id;
      id
    end
  in
  ignore (id_of t.init.(c) : int);
  let rev_lists = ref [] in
  let i = ref 0 in
  while !i < !n do
    let s = !order.(!i) in
    let stop = t.row.(s + 1) in
    let rec find lo =
      if lo >= stop then (lo, lo)
      else begin
        let g = t.guard.(lo) in
        let hi = ref (lo + 1) in
        while !hi < stop && t.guard.(!hi) = g do
          incr hi
        done;
        if Guard.mem t.guards g c then (lo, !hi) else find !hi
      end
    in
    let lo, hi = find t.row.(s) in
    let acc = ref [] in
    for e = lo to hi - 1 do
      let rate =
        match t.rate_kind.(e) with
        | 1 -> Some (Rate.Exp t.rate_val.(e))
        | 2 -> Some (Rate.Imm { prio = t.rate_prio.(e); weight = t.rate_val.(e) })
        | 3 -> Some (Rate.Passive { weight = t.rate_val.(e) })
        | _ -> None
      in
      acc := { Lts.label = t.lab.(e); rate; target = id_of t.tgt.(e) } :: !acc
    done;
    rev_lists := List.rev !acc :: !rev_lists;
    incr i
  done;
  let trans = Array.of_list (List.rev !rev_lists) in
  let order = Array.sub !order 0 !n in
  let term = t.term in
  let lts =
    Lts.make ~init:0
      ~state_name:(fun i -> Term.to_string (term order.(i)))
      trans
  in
  let module I = Dpma_obs.Instruments in
  Dpma_obs.Metrics.observe I.family_project_seconds
    (Dpma_obs.Clock.now_s () -. t0);
  lts)

let project_all ?jobs t =
  let ltss =
    Pool.parallel_map ?jobs (project t) (List.init t.nconfigs Fun.id)
  in
  let arr = Array.of_list ltss in
  let total =
    Array.fold_left (fun acc (l : Lts.t) -> acc + l.Lts.num_states) 0 arr
  in
  if total > 0 then
    Dpma_obs.Metrics.set Dpma_obs.Instruments.family_sharing_ratio
      (float_of_int t.num_states /. float_of_int total);
  arr
