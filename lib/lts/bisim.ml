module Rate = Dpma_pa.Rate
module Pool = Dpma_util.Pool
module Hash = Dpma_util.Hash

(* Signatures are canonical encodings of a state's outgoing behaviour
   w.r.t. the current partition. They are packed into flat arrays — an
   [ints] part (encoded (label, block) data) and a [floats] part
   (cumulative rates, empty for non-Markovian signatures) — so the
   refinement loop hashes and compares machine integers and floats only,
   never polymorphic values. A (label, block) pair packs into one int:
   block ids are bounded by the state count (< 2^31 by Lts.of_spec's
   max_states ceiling) and label ids by the interned-label count. *)

let pack_pair label block = (label lsl 31) lor block

module Sig_key = struct
  type t = { old_block : int; ints : int array; floats : float array }

  let equal a b =
    a.old_block = b.old_block
    && Array.length a.ints = Array.length b.ints
    && Array.length a.floats = Array.length b.floats
    && (let ok = ref true in
        Array.iteri (fun i x -> if x <> b.ints.(i) then ok := false) a.ints;
        !ok)
    && (let ok = ref true in
        Array.iteri
          (fun i (x : float) -> if x <> b.floats.(i) then ok := false)
          a.floats;
        !ok)

  let hash { old_block; ints; floats } =
    let h = ref (Hash.fold_ints (old_block + 1) ints) in
    Array.iter
      (fun x -> h := Hash.fold !h (Int64.to_int (Int64.bits_of_float x)))
      floats;
    Hash.int !h
end

module Sig_tbl = Hashtbl.Make (Sig_key)

type signature = { ints : int array; floats : float array }

let ints_signature ints = { ints; floats = [||] }

(* Keys are packed (label, block) pairs and state ids. *)
module Int_tbl = Hashtbl.Make (Hash.Int)

(* Signature-based partition refinement. [signature block] maps a state
   to a canonical representation of its outgoing behaviour w.r.t. the
   blocks of [block]; refinement stops when the block count is stable.

   Each round re-keys every state by (current block, signature) and
   renumbers the classes densely in first-seen state order. With more
   than one job the signature pass — read-only over the frozen CSR and
   the pre-round partition — is dealt to the pool as contiguous state
   ranges: each worker dedupes its chunk's signatures into a private
   table, recording the chunk's distinct keys in local first-seen order,
   and the coordinator then merges the chunks in state order, assigning
   a global class id the first time it meets each key. A key's global
   first occurrence lies in the earliest chunk containing it, at that
   chunk's local first occurrence, so the merged numbering is exactly
   the sequential first-seen-by-state-index numbering: partitions are
   bit-identical for any job count and any chunk size. *)

(* Below this state count a round's signature pass is too cheap to
   amortize the pool's per-round spawn/join cost; on a machine that
   cannot run two domains at once no state count is. Scheduling only —
   the partition is identical either way. *)
let refine_par_cutoff ~jobs:_ =
  if Pool.hardware_parallelism () <= 1 then max_int else 1024

(* The distinct signature keys of one chunk, in local first-seen order,
   plus each chunk state's index into them. *)
type chunk_classes = { cc_keys : Sig_key.t array; cc_locals : int array }

type refine_worker = { rw_table : int Sig_tbl.t; mutable rw_classes : int }

let empty_key = { Sig_key.old_block = 0; ints = [||]; floats = [||] }

let chunk_classes ~block ~sig_of w (lo, len) =
  Sig_tbl.reset w.rw_table;
  let locals = Array.make len 0 in
  let rev_keys = ref [] in
  let next = ref 0 in
  for i = 0 to len - 1 do
    let s = lo + i in
    let ({ ints; floats } : signature) = sig_of s in
    let key = { Sig_key.old_block = block.(s); ints; floats } in
    match Sig_tbl.find_opt w.rw_table key with
    | Some id -> locals.(i) <- id
    | None ->
        Sig_tbl.add w.rw_table key !next;
        locals.(i) <- !next;
        rev_keys := key :: !rev_keys;
        incr next
  done;
  w.rw_classes <- w.rw_classes + !next;
  let keys = Array.make !next empty_key in
  List.iteri (fun j k -> keys.(!next - 1 - j) <- k) !rev_keys;
  { cc_keys = keys; cc_locals = locals }

let resolve_pool ?jobs ?par_cutoff () =
  let jobs =
    match jobs with Some j -> max 1 j | None -> Pool.default_jobs ()
  in
  let par_cutoff =
    match par_cutoff with
    | Some c -> max 0 c
    | None -> refine_par_cutoff ~jobs
  in
  (jobs, par_cutoff)

(* The one refinement driver: runs rounds to the fixpoint, or — when a
   watched pair is given — until the watched states land in different
   blocks, whichever comes first. Returns [(partition, rounds, split)],
   [split] telling whether the watched pair was split. [signature block]
   is applied once per round, in this domain; the function it returns
   must be read-only, since the parallel workers share it. *)
let refine_loop ?watch ?jobs ?par_cutoff (lts : Lts.t) ~signature =
  let jobs, par_cutoff = resolve_pool ?jobs ?par_cutoff () in
  Dpma_obs.Trace.with_span "bisim.refine"
    ~attrs:[ ("states", Dpma_obs.Trace.Int lts.num_states) ] @@ fun () ->
  let module I = Dpma_obs.Instruments in
  let module M = Dpma_obs.Metrics in
  M.incr I.bisim_refines;
  let n = lts.num_states in
  let par = jobs > 1 && n >= par_cutoff in
  if (not par) && jobs > 1 && n > 0 then M.incr I.bisim_par_seq_fallbacks;
  let chunks =
    if not par then [||]
    else
      let c = Pool.recommended_chunk ~n ~jobs in
      Array.init ((n + c - 1) / c) (fun i ->
          let lo = i * c in
          (lo, min c (n - lo)))
  in
  let block = Array.make n 0 in
  let num_blocks = ref 1 in
  let rounds = ref 0 in
  let split = ref false in
  let partial () =
    [ ("states", float_of_int n);
      ("rounds", float_of_int !rounds);
      ("blocks", float_of_int !num_blocks) ]
  in
  let continue_ = ref (n > 0) in
  while !continue_ do
    Dpma_util.Guard.poll ~partial ~phase:"bisim.refine" ();
    M.incr I.bisim_rounds;
    incr rounds;
    let new_block = Array.make n 0 in
    let sig_of = signature block in
    let next =
      if not par then begin
        let table = Sig_tbl.create (2 * !num_blocks) in
        let next = ref 0 in
        for s = 0 to n - 1 do
          let ({ ints; floats } : signature) = sig_of s in
          let key = { Sig_key.old_block = block.(s); ints; floats } in
          match Sig_tbl.find_opt table key with
          | Some id -> new_block.(s) <- id
          | None ->
              Sig_tbl.add table key !next;
              new_block.(s) <- !next;
              incr next
        done;
        !next
      end
      else begin
        M.incr I.bisim_par_rounds;
        let classes =
          Pool.map_chunks_ordered ~jobs
            ~init:(fun () -> { rw_table = Sig_tbl.create 256; rw_classes = 0 })
            ~f:(chunk_classes ~block ~sig_of)
            ~finish:(fun w ->
              M.observe I.bisim_par_blocks_per_worker
                (float_of_int w.rw_classes))
            chunks
        in
        let tm = Dpma_obs.Clock.now_s () in
        let table = Sig_tbl.create (2 * !num_blocks) in
        let next = ref 0 in
        Array.iteri
          (fun ci { cc_keys; cc_locals } ->
            let global = Array.make (Array.length cc_keys) 0 in
            Array.iteri
              (fun j key ->
                match Sig_tbl.find_opt table key with
                | Some id -> global.(j) <- id
                | None ->
                    Sig_tbl.add table key !next;
                    global.(j) <- !next;
                    incr next)
              cc_keys;
            let lo, _ = chunks.(ci) in
            Array.iteri
              (fun i l -> new_block.(lo + i) <- global.(l))
              cc_locals)
          classes;
        M.observe I.bisim_par_merge_seconds (Dpma_obs.Clock.now_s () -. tm);
        !next
      end
    in
    M.observe I.bisim_blocks_per_round (float_of_int next);
    (match watch with
    | Some (wa, wb) -> split := new_block.(wa) <> new_block.(wb)
    | None -> ());
    (* A watched split always adds a block (the refinement key includes
       the old block), so a stable round never splits the pair. *)
    if next = !num_blocks then continue_ := false
    else begin
      num_blocks := next;
      Array.blit new_block 0 block 0 n;
      if !split then continue_ := false
    end
  done;
  M.set I.bisim_blocks (float_of_int !num_blocks);
  (block, !rounds, !split)

let refine ?jobs ?par_cutoff lts ~signature =
  let block, _, _ = refine_loop ?jobs ?par_cutoff lts ~signature in
  block

let sorted_dedup_array (l : int list) =
  Array.of_list (List.sort_uniq Int.compare l)

let strong_signature (lts : Lts.t) block s =
  let rec go i acc =
    if i < lts.row.(s) then acc
    else go (i - 1) (pack_pair lts.lab.(i) block.(lts.tgt.(i)) :: acc)
  in
  ints_signature (sorted_dedup_array (go (lts.row.(s + 1) - 1) []))

let strong_partition ?jobs ?par_cutoff lts =
  refine ?jobs ?par_cutoff lts ~signature:(strong_signature lts)

let compose outer inner = Array.map (fun b -> outer.(b)) inner

(* Weak signatures: [Tau.weak_signatures] gives each state exactly the
   strong signature it would carry on the saturated LTS (see
   lib/lts/tau.ml and docs/WEAK_EQUIVALENCE.md), so refinement over it
   is round-for-round bit-identical to strong refinement of the
   materialized saturation while never building the weak relation. The
   condensation runs here, once; each round's pass runs when the
   refinement loop applies the result to its partition. *)
let weak_signature lts =
  let weak = Tau.weak_signatures lts in
  fun block ->
    let f = weak block in
    fun s -> ints_signature (f s)

(* Strong quotient then tau-SCC collapse. Strongly bisimilar states are
   branching, hence weakly, bisimilar and weak-trace equivalent. The
   members of a tau-SCC silently reach one another, so they are weakly
   bisimilar, trace equivalent, and — because the branching signature is
   divergence-blind (see [branching_signature]) — branching bisimilar
   too, the tau self-loops left behind being inert. Both quotients are
   cheap and shrink whatever the closure-based passes run on. A
   divergence-sensitive variant would have to mark divergent SCCs rather
   than collapse them away. Returns the composed partition and the
   reduced LTS. *)
let pre_reduce ?jobs ?par_cutoff lts =
  let p1 = strong_partition ?jobs ?par_cutoff lts in
  let l1 = Lts.quotient lts p1 in
  let p2 = (Tau.tau_sccs l1).comp_of in
  (compose p2 p1, Lts.quotient l1 p2)

let weak_partition ?jobs ?par_cutoff lts =
  let p, reduced = pre_reduce ?jobs ?par_cutoff lts in
  compose
    (refine ?jobs ?par_cutoff reduced ~signature:(weak_signature reduced))
    p

(* For lumping, transitions to the same block accumulate: exponential rates
   add up; immediate weights add up per priority; passive weights add up.
   The rate class is encoded as a small non-negative int: 0 exponential
   (and unrated), 1 passive, 2 + prio-code for immediate. *)
let class_code kind prio =
  match kind with
  | 2 -> 2 + if prio >= 0 then 2 * prio else (2 * -prio) - 1
  | _ -> if kind = 3 then 1 else 0

module Triple_key = struct
  type t = int * int * int (* label, target block, rate class *)

  let equal (a1, b1, c1) (a2, b2, c2) = a1 = a2 && b1 = b2 && c1 = c2

  let hash (a, b, c) = Hash.int (Hash.fold (Hash.fold (Hash.fold 3 a) b) c)
end

module Triple_tbl = Hashtbl.Make (Triple_key)

let markovian_signature (lts : Lts.t) block s =
  let table = Triple_tbl.create 8 in
  for i = lts.row.(s) to lts.row.(s + 1) - 1 do
    let value = if lts.rate_kind.(i) = 0 then 0.0 else lts.rate_val.(i) in
    let key =
      (lts.lab.(i), block.(lts.tgt.(i)),
       class_code lts.rate_kind.(i) lts.rate_prio.(i))
    in
    let current = Option.value ~default:0.0 (Triple_tbl.find_opt table key) in
    Triple_tbl.replace table key (current +. value)
  done;
  let entries = Triple_tbl.fold (fun k v acc -> (k, v) :: acc) table [] in
  let entries =
    List.sort
      (fun ((a1, b1, c1), _) ((a2, b2, c2), _) ->
        match Int.compare a1 a2 with
        | 0 -> ( match Int.compare b1 b2 with 0 -> Int.compare c1 c2 | d -> d)
        | d -> d)
      entries
  in
  let k = List.length entries in
  let ints = Array.make (3 * k) 0 in
  let floats = Array.make k 0.0 in
  List.iteri
    (fun i ((a, b, c), v) ->
      ints.(3 * i) <- a;
      ints.((3 * i) + 1) <- b;
      ints.((3 * i) + 2) <- c;
      floats.(i) <- v)
    entries;
  { ints; floats }

let markovian_partition ?jobs ?par_cutoff lts =
  refine ?jobs ?par_cutoff lts ~signature:(markovian_signature lts)

(* Branching bisimulation via Blom–Orzan signature refinement: a state's
   signature collects the (label, target block) pairs reachable after
   internal stuttering *within its own current block*; inert tau steps
   (same-block) are excluded. The fixpoint of this refinement is the
   coarsest branching bisimulation. The closure is per state (it depends
   on the state's own block), and it is recomputed every round: the
   product front refines pre-reduced sides, where it is cheap. The
   signature only reads the CSR and [block], so workers may share it. *)
let branching_signature (lts : Lts.t) block s =
  let b = block.(s) in
  let seen = Int_tbl.create 8 in
  Int_tbl.add seen s ();
  let stack = ref [ s ] in
  let closure = ref [ s ] in
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | x :: rest ->
        stack := rest;
        for i = lts.row.(x) to lts.row.(x + 1) - 1 do
          let t = lts.tgt.(i) in
          if lts.lab.(i) = Lts.tau && block.(t) = b && not (Int_tbl.mem seen t)
          then begin
            Int_tbl.add seen t ();
            closure := t :: !closure;
            stack := t :: !stack
          end
        done
  done;
  let acc = ref [] in
  List.iter
    (fun x ->
      for i = lts.row.(x) to lts.row.(x + 1) - 1 do
        let t = lts.tgt.(i) in
        if not (lts.lab.(i) = Lts.tau && block.(t) = b) then
          acc := pack_pair lts.lab.(i) block.(t) :: !acc
      done)
    !closure;
  ints_signature (sorted_dedup_array !acc)

let branching_partition ?jobs ?par_cutoff lts =
  refine ?jobs ?par_cutoff lts ~signature:(branching_signature lts)

let branching_equivalent ?jobs ?par_cutoff a b =
  let union, ia, ib = Lts.disjoint_union a b in
  let block = branching_partition ?jobs ?par_cutoff union in
  block.(ia) = block.(ib)

let strong_equivalent ?jobs ?par_cutoff a b =
  let union, ia, ib = Lts.disjoint_union a b in
  let block = strong_partition ?jobs ?par_cutoff union in
  block.(ia) = block.(ib)

let weak_equivalent ?jobs ?par_cutoff a b =
  let union, ia, ib = Lts.disjoint_union a b in
  let block = weak_partition ?jobs ?par_cutoff union in
  block.(ia) = block.(ib)

let minimize_strong ?jobs ?par_cutoff lts =
  Lts.quotient lts (strong_partition ?jobs ?par_cutoff lts)

(* First-seen dense renumbering in state order — the numbering [refine]
   itself produces, so the lazy [minimize_weak] quotient carries the
   same state ids as the oracle path's. *)
let dense_renumber p =
  let map = Int_tbl.create 64 in
  let next = ref 0 in
  Array.map
    (fun b ->
      match Int_tbl.find_opt map b with
      | Some id -> id
      | None ->
          let id = !next in
          Int_tbl.add map b id;
          incr next;
          id)
    p

let minimize_weak ?jobs ?par_cutoff lts =
  (* The partition comes from the lazy pass; the quotient — one state
     per weak class — is then saturated so the result carries the
     materialized weak (double-arrow) transitions, as the output always
     did. For the coarsest weak partition, quotient and saturation
     commute (as edge sets): collapsing a class only merges states that
     silently reach each other's tau-closures, so saturating at quotient
     size loses nothing — and the quadratic step runs on the minimized
     LTS instead of the input. *)
  let p = dense_renumber (weak_partition ?jobs ?par_cutoff lts) in
  let quotient = Lts.quotient lts p in
  Dpma_obs.Trace.with_span "bisim.saturate"
    ~attrs:[ ("states", Dpma_obs.Trace.Int quotient.num_states) ] (fun () ->
      Tau.saturate quotient)

module Int_list_key = struct
  type t = int list

  let equal = List.equal Int.equal

  let hash l = Hash.int (List.fold_left Hash.fold 17 l)
end

module Int_list_tbl = Hashtbl.Make (Int_list_key)

let determinize ?(max_states = 500_000) (lts : Lts.t) =
  let closure = Tau.tau_closure lts in
  let close set =
    List.concat_map (fun s -> closure.(s)) set |> List.sort_uniq Int.compare
  in
  let table = Int_list_tbl.create 64 in
  (* Ids are assigned sequentially, so a growable array of sets doubles as
     both the state store and the BFS queue (a cursor over it) — no
     polymorphic [Queue] in the hot loop. *)
  let sets = ref (Array.make 64 []) in
  let count = ref 0 in
  let id_of set =
    match Int_list_tbl.find_opt table set with
    | Some id -> id
    | None ->
        if !count >= max_states then raise (Lts.Too_many_states max_states);
        let id = !count in
        incr count;
        Int_list_tbl.add table set id;
        if id = Array.length !sets then begin
          let bigger = Array.make (2 * id) [] in
          Array.blit !sets 0 bigger 0 id;
          sets := bigger
        end;
        !sets.(id) <- set;
        id
  in
  let init = id_of (close [ lts.init ]) in
  let w = Lts.writer 64 in
  let head = ref 0 in
  while !head < !count do
    let set = !sets.(!head) in
    incr head;
    (* Group the observable successors of the (already tau-closed) set. *)
    let by_label : int list Int_tbl.t = Int_tbl.create 8 in
    List.iter
      (fun s ->
        for i = lts.row.(s) to lts.row.(s + 1) - 1 do
          let l = lts.lab.(i) in
          if l <> Lts.tau then begin
            let cur = Option.value ~default:[] (Int_tbl.find_opt by_label l) in
            Int_tbl.replace by_label l (lts.tgt.(i) :: cur)
          end
        done)
      set;
    (* Labels are handled in name order, so the numbering of new subsets
       and the order of the state's edges depend only on the input, not
       on the ids the labels were interned with. *)
    Int_tbl.fold (fun l targets acc -> (l, targets) :: acc) by_label []
    |> List.sort (fun (a, _) (b, _) -> Dpma_pa.Label.compare_by_name a b)
    |> List.iter (fun (l, targets) -> Lts.add_edge w l (id_of (close targets)));
    Lts.close_state w
  done;
  let sets = !sets in
  Lts.finish w ~init
    ~state_name:(fun i ->
      "{" ^ String.concat "," (List.map string_of_int sets.(i)) ^ "}")

let trace_equivalent ?jobs ?par_cutoff a b =
  strong_equivalent ?jobs ?par_cutoff (determinize a) (determinize b)

(* ------------------------------------------------------------------ *)
(* On-the-fly product refinement for the noninterference check.        *)
(* ------------------------------------------------------------------ *)

(* Drop the states a side cannot reach from its initial state: the
   equivalence class of the initial state only depends on the reachable
   part, and [Lts.restrict] (used to build the "DPM removed" side)
   leaves edge-orphaned states in place, so this prunes real work before
   any quotient or saturation runs. Returns the (possibly physically
   unchanged) LTS and the number of states dropped. *)
let restrict_reachable (lts : Lts.t) =
  let n = lts.num_states in
  let reach = Lts.reachable_from lts lts.init in
  let count = ref 0 in
  Array.iter (fun r -> if r then incr count) reach;
  if !count = n then (lts, 0)
  else begin
    let new_of_old = Array.make n (-1) in
    let old_of_new = Array.make !count 0 in
    let next = ref 0 in
    for s = 0 to n - 1 do
      if reach.(s) then begin
        new_of_old.(s) <- !next;
        old_of_new.(!next) <- s;
        incr next
      end
    done;
    let pruned = Lts.copy_states lts old_of_new new_of_old in
    (pruned, n - !count)
  end

type product_trail = {
  left : Lts.t;
  right : Lts.t;
  split_round : int;
}

type product_result =
  | Product_secure of { partition : int array; rounds : int }
  | Product_insecure of product_trail

let record_product_exit ~rounds ~pruned secure =
  let module I = Dpma_obs.Instruments in
  Dpma_obs.Metrics.add I.ni_product_rounds rounds;
  Dpma_obs.Metrics.add I.ni_product_pruned pruned;
  Dpma_obs.Metrics.incr
    (if secure then I.ni_product_secure_exits else I.ni_product_insecure_exits)

type product_front = {
  front_left : Lts.t;  (* the original sides, kept for the insecure trail *)
  front_right : Lts.t;
  reduced_left : Lts.t;
  reduced_right : Lts.t;
  pruned : int;  (* states the reachability pruning dropped, both sides *)
}

(* Prune each side to its reachable part, then [pre_reduce] it — per
   side, so the unreduced union never exists. The reduction's merges are
   not counted in [pruned]. *)
let product_front ?jobs ?par_cutoff (a : Lts.t) (b : Lts.t) =
  Dpma_obs.Trace.with_span "bisim.front"
    ~attrs:
      [ ("states", Dpma_obs.Trace.Int (a.num_states + b.num_states)) ]
    (fun () ->
      let reduce lts =
        let reachable, pruned = restrict_reachable lts in
        (snd (pre_reduce ?jobs ?par_cutoff reachable), pruned)
      in
      let reduced_left, pruned_a = reduce a in
      let reduced_right, pruned_b = reduce b in
      {
        front_left = a;
        front_right = b;
        reduced_left;
        reduced_right;
        pruned = pruned_a + pruned_b;
      })

(* One decision on a front: the two reduced sides, each mapped through
   [side], are stitched and refined under [signature] with the initial
   states watched. Returns the watched refinement's
   [(partition, rounds, split)]; the exit is recorded with the front's
   pruned count, once per decision. *)
let decide_on ?jobs ?par_cutoff ?(side = Fun.id) front ~signature =
  Dpma_obs.Trace.with_span "bisim.product"
    ~attrs:
      [
        ( "states",
          Dpma_obs.Trace.Int
            (front.reduced_left.num_states + front.reduced_right.num_states) );
      ]
    (fun () ->
      let union, ia, ib =
        Lts.disjoint_union (side front.reduced_left) (side front.reduced_right)
      in
      let ((_, rounds, split) as result) =
        refine_loop ?jobs ?par_cutoff union ~signature:(signature union)
          ~watch:(ia, ib)
      in
      record_product_exit ~rounds ~pruned:front.pruned (not split);
      result)

(* Disjoint union commutes with saturation, so refining the unsaturated
   union through the lazy weak pass sees the same signatures — hence the
   same rounds, watched exit and trail — as strong refinement of a
   saturated union would. *)
let weak_front_check ?jobs ?par_cutoff front =
  match decide_on ?jobs ?par_cutoff front ~signature:weak_signature with
  | partition, rounds, false -> Product_secure { partition; rounds }
  | _, rounds, true ->
      Product_insecure
        { left = front.front_left; right = front.front_right;
          split_round = rounds }

let branching_front_secure ?jobs ?par_cutoff front =
  let _, _, split =
    decide_on ?jobs ?par_cutoff front ~signature:branching_signature
  in
  not split

let trace_front_secure ?max_states ?jobs ?par_cutoff front =
  let _, _, split =
    decide_on ?jobs ?par_cutoff front ~side:(determinize ?max_states)
      ~signature:strong_signature
  in
  not split
