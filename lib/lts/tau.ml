(* On-the-fly weak saturation: tau-SCC condensation of the packed CSR and
   per-component tau-closure caches.

   [Bisim]'s lazy weak pass asks, each refinement round, for the weak
   signature of every state — the packed (label, block) pairs reachable
   through [=tau*=> -a-> =tau*=>] moves — without materializing the
   saturated transition relation. All states of one tau-SCC are mutually
   tau-reachable and therefore share one weak signature, so the unit of
   caching is a component of the condensation DAG. Two layers:

     C(c) = blocks of the states tau-reachable from c
          = member blocks of c  U  C(d), for condensed tau edges c -> d
     W(c) = { pack(tau, b) | b in C(c) }
          U  { pack(a, b)  | member x of c, observable x -a-> u,
                             b in C(comp(u)) }
          U  W(d), for condensed tau edges c -> d

   W(c), sorted and deduped, is exactly the strong signature the states
   of [c] carry on the saturated LTS: the tau part enumerates the
   [=tau*=>] targets per block, and the observable part unions, over
   every tau-reachable emitter (own members plus, transitively through
   the W(d) terms, the members of every DAG-reachable component), the
   tau-closure blocks of its observable successors. Refinement over
   these signatures is therefore round-for-round bit-identical to strong
   refinement of the materialized saturation. C recurses through tau
   edges only (acyclic after condensation); W additionally reads the C
   of observable target components, which can sit anywhere in the DAG —
   which is why the two layers are kept separate (a one-layer recursion
   through observable edges could cycle).

   Entries are interned: equal sets share one canonical array, so the
   cached payload is bounded by the number of distinct signatures — at
   most the next round's block count, since a block has exactly one
   signature — rather than by components, let alone by saturated edges
   (docs/WEAK_EQUIVALENCE.md works out the memory model and the
   quadratic counterexample). Across rounds entries survive splits by
   block renaming: refinement renumbers every block, but a block that
   did not split maps to exactly one new id, so an entry all of whose
   mentioned blocks are unsplit is remapped in place ([remap_pairs]);
   an entry mentioning a split block is dropped and recomputed on
   demand. *)

module Scc = Dpma_util.Scc

(* Must match [Bisim]'s packing exactly: the arrays produced here feed
   the same signature tables the saturated oracle path fills. *)
let pack_pair label block = (label lsl 31) lor block

let block_mask = (1 lsl 31) - 1

module Int_key = struct
  type t = int

  let equal : int -> int -> bool = Int.equal

  let hash x = (x * 0x9E37_79B9) land max_int
end

module Int_tbl = Hashtbl.Make (Int_key)

type condensation = {
  num_comps : int;
  comp_of : int array;
  tau_row : int array;
  tau_tgt : int array;
  mem_row : int array;
  members : int array;
}

(* The tau-only sub-CSR, edges in their original order, so Tarjan visits
   successors exactly as on the full relation restricted to tau. *)
let tau_sccs (lts : Lts.t) =
  let n = lts.num_states in
  let row = Array.make (n + 1) 0 in
  for s = 0 to n - 1 do
    let k = ref 0 in
    for i = lts.row.(s) to lts.row.(s + 1) - 1 do
      if lts.lab.(i) = Lts.tau then incr k
    done;
    row.(s + 1) <- row.(s) + !k
  done;
  let dst = Array.make row.(n) 0 in
  let next = ref 0 in
  for i = 0 to lts.row.(n) - 1 do
    if lts.lab.(i) = Lts.tau then begin
      dst.(!next) <- lts.tgt.(i);
      incr next
    end
  done;
  Scc.tarjan_csr ~row ~dst n

let condense (lts : Lts.t) =
  let n = lts.num_states in
  let sccs = tau_sccs lts in
  let comp_of = sccs.comp_of in
  let num_comps = Scc.count sccs in
  (* Condensed tau edges, deduped, self-loops dropped. Tarjan numbers
     components in reverse topological order, so every kept edge points
     to a strictly smaller id: a component's tau dependencies always
     carry smaller ids than the component itself. *)
  let succs = Array.make (max 1 num_comps) [] in
  for s = 0 to n - 1 do
    let c = comp_of.(s) in
    for i = lts.row.(s) to lts.row.(s + 1) - 1 do
      if lts.lab.(i) = Lts.tau then begin
        let d = comp_of.(lts.tgt.(i)) in
        if d <> c then succs.(c) <- d :: succs.(c)
      end
    done
  done;
  let tau_row = Array.make (num_comps + 1) 0 in
  let uniq =
    Array.init num_comps (fun c ->
        Array.of_list (List.sort_uniq Int.compare succs.(c)))
  in
  for c = 0 to num_comps - 1 do
    tau_row.(c + 1) <- tau_row.(c) + Array.length uniq.(c)
  done;
  let tau_tgt = Array.make (max 1 tau_row.(num_comps)) 0 in
  for c = 0 to num_comps - 1 do
    Array.blit uniq.(c) 0 tau_tgt tau_row.(c) (Array.length uniq.(c))
  done;
  { num_comps; comp_of; tau_row; tau_tgt; mem_row = sccs.comp_row;
    members = sccs.members }

(* ------------------------------------------------------------------ *)
(* Interning and cross-round renaming                                  *)

module Arr_key = struct
  type t = int array

  let equal (a : int array) (b : int array) =
    Array.length a = Array.length b
    &&
    let ok = ref true in
    Array.iteri (fun i x -> if x <> b.(i) then ok := false) a;
    !ok

  let hash (a : int array) =
    let h = ref (Array.length a + 1) in
    Array.iter (fun x -> h := (!h * 31) + x) a;
    !h land max_int
end

module Arr_tbl = Hashtbl.Make (Arr_key)

type stats = {
  mutable hits : int;
  mutable misses : int;
  mutable remaps : int;
  mutable invalidations : int;
  mutable bytes : int;
  mutable bytes_peak : int;
}

let fresh_stats () =
  { hits = 0; misses = 0; remaps = 0; invalidations = 0; bytes = 0;
    bytes_peak = 0 }

(* One word of header plus one word per element. *)
let array_bytes a = 8 * (Array.length a + 1)

let intern pool st arr =
  match Arr_tbl.find_opt pool arr with
  | Some canonical -> canonical
  | None ->
      Arr_tbl.add pool arr arr;
      st.bytes <- st.bytes + array_bytes arr;
      if st.bytes > st.bytes_peak then st.bytes_peak <- st.bytes;
      arr

let renaming ~old_block ~new_block =
  let num_old = 1 + Array.fold_left max (-1) old_block in
  let rename = Array.make (max 1 num_old) (-2) in
  Array.iteri
    (fun s ob ->
      let nb = new_block.(s) in
      if rename.(ob) = -2 then rename.(ob) <- nb
      else if rename.(ob) <> nb then rename.(ob) <- -1)
    old_block;
  rename

let remap_pairs rename arr =
  let k = Array.length arr in
  let out = Array.make k 0 in
  try
    for i = 0 to k - 1 do
      let p = arr.(i) in
      let nb = rename.(p land block_mask) in
      if nb < 0 then raise Exit;
      out.(i) <- (p land lnot block_mask) lor nb
    done;
    (* The rename is not monotone, so re-sort; no re-dedup is needed
       because the rename is injective on unsplit blocks (a refinement
       key includes the old block, so a new block never spans two old
       ones). *)
    Array.sort Int.compare out;
    Some out
  with Exit -> None

(* Remap every cached entry of [slots] through [rename], interning
   survivors into the (already reset) [pool]; [memo] dedups the remap
   work across slots sharing one canonical array. *)
let advance_slots pool st memo rename slots =
  Array.iteri
    (fun i entry ->
      match entry with
      | None -> ()
      | Some arr -> (
          let remapped =
            match Arr_tbl.find_opt memo arr with
            | Some r -> r
            | None ->
                let r = remap_pairs rename arr in
                Arr_tbl.add memo arr r;
                r
          in
          match remapped with
          | Some r ->
              slots.(i) <- Some (intern pool st r);
              st.remaps <- st.remaps + 1
          | None ->
              slots.(i) <- None;
              st.invalidations <- st.invalidations + 1))
    slots

(* Reusable int scratch for the closure recompute paths: pushes are
   amortized O(1) into a growable array, and [scratch_flush_sorted]
   sorts the live prefix, dedups in place, and copies out an
   exact-length array — replacing a cons-cell list plus [List.sort_uniq]
   per recompute. The output is the same sorted duplicate-free content,
   so signatures are bit-identical. *)
type scratch = { mutable sbuf : int array; mutable slen : int }

let scratch_create () = { sbuf = Array.make 256 0; slen = 0 }

let scratch_push sc x =
  let n = Array.length sc.sbuf in
  if sc.slen = n then begin
    let nb = Array.make (2 * n) 0 in
    Array.blit sc.sbuf 0 nb 0 n;
    sc.sbuf <- nb
  end;
  sc.sbuf.(sc.slen) <- x;
  sc.slen <- sc.slen + 1

let scratch_flush_sorted sc =
  let a = Array.sub sc.sbuf 0 sc.slen in
  sc.slen <- 0;
  Array.sort Int.compare a;
  let n = Array.length a in
  if n <= 1 then a
  else begin
    let k = ref 1 in
    for i = 1 to n - 1 do
      if a.(i) <> a.(!k - 1) then begin
        a.(!k) <- a.(i);
        incr k
      end
    done;
    if !k = n then a else Array.sub a 0 !k
  end

(* ------------------------------------------------------------------ *)
(* Weak signatures: per-component C / W caches                          *)

module Weak = struct
  type t = {
    lts : Lts.t;
    cond : condensation;
    pool : int array Arr_tbl.t;
    c_set : int array option array;
    w_set : int array option array;
    stats : stats;
  }

  (* A view abstracts where lookups and stores go: the parent cache
     itself (sequential refinement, coordinator recomputation) or a
     worker shard layered over a frozen parent (parallel rounds). Each
     view owns two scratch buffers — one per recompute path, since a
     [compute_w] in flight triggers nested [compute_c] calls through
     [ensure_c]; neither function nests with itself. *)
  type view = {
    vt : t;
    get_c : int -> int array option;
    set_c : int -> int array -> int array;
    get_w : int -> int array option;
    set_w : int -> int array -> int array;
    vstats : stats;
    sc_c : scratch;
    sc_w : scratch;
  }

  let create (lts : Lts.t) =
    let cond =
      Dpma_obs.Trace.with_span "bisim.tau.condense"
        ~attrs:[ ("states", Dpma_obs.Trace.Int lts.num_states) ] (fun () ->
          condense lts)
    in
    {
      lts;
      cond;
      pool = Arr_tbl.create 256;
      c_set = Array.make (max 1 cond.num_comps) None;
      w_set = Array.make (max 1 cond.num_comps) None;
      stats = fresh_stats ();
    }

  let components t = t.cond.num_comps

  let bytes_peak t = t.stats.bytes_peak

  let compute_c v ~block c =
    let cond = v.vt.cond in
    if
      cond.mem_row.(c + 1) - cond.mem_row.(c) = 1
      && cond.tau_row.(c + 1) = cond.tau_row.(c)
    then
      (* Singleton fast path — the overwhelmingly common shape on
         tau-thin models, where nearly every component is one state
         with no condensed tau successors: C is its own block,
         already sorted and deduped. *)
      [| block.(cond.members.(cond.mem_row.(c))) |]
    else begin
      let sc = v.sc_c in
      for i = cond.mem_row.(c) to cond.mem_row.(c + 1) - 1 do
        scratch_push sc block.(cond.members.(i))
      done;
      for i = cond.tau_row.(c) to cond.tau_row.(c + 1) - 1 do
        match v.get_c cond.tau_tgt.(i) with
        | Some ca -> Array.iter (fun b -> scratch_push sc b) ca
        | None -> assert false (* dependencies settled by [ensure_c] *)
      done;
      scratch_flush_sorted sc
    end

  (* Iterative (explicit-stack) DFS over the condensed tau DAG — a tau
     chain can be as deep as the state count, so no native recursion. *)
  let ensure_c v ~block c0 =
    (match v.get_c c0 with
    | Some _ -> ()
    | None ->
        let cond = v.vt.cond in
        let stack = ref [ c0 ] in
        while !stack <> [] do
          match !stack with
          | [] -> ()
          | c :: rest -> (
              match v.get_c c with
              | Some _ -> stack := rest
              | None ->
                  let pending = ref [] in
                  for i = cond.tau_row.(c) to cond.tau_row.(c + 1) - 1 do
                    let d = cond.tau_tgt.(i) in
                    match v.get_c d with
                    | Some _ -> ()
                    | None -> pending := d :: !pending
                  done;
                  if !pending = [] then begin
                    ignore (v.set_c c (compute_c v ~block c));
                    stack := rest
                  end
                  else stack := List.rev_append !pending !stack)
        done);
    match v.get_c c0 with Some a -> a | None -> assert false

  let compute_w v ~block c =
    let cond = v.vt.cond in
    let lts = v.vt.lts in
    let sc = v.sc_w in
    Array.iter
      (fun b -> scratch_push sc (pack_pair Lts.tau b))
      (ensure_c v ~block c);
    for i = cond.tau_row.(c) to cond.tau_row.(c + 1) - 1 do
      match v.get_w cond.tau_tgt.(i) with
      | Some wa -> Array.iter (fun p -> scratch_push sc p) wa
      | None -> assert false (* dependencies settled by [ensure_w] *)
    done;
    for i = cond.mem_row.(c) to cond.mem_row.(c + 1) - 1 do
      let x = cond.members.(i) in
      for j = lts.row.(x) to lts.row.(x + 1) - 1 do
        let l = lts.lab.(j) in
        if l <> Lts.tau then
          Array.iter
            (fun b -> scratch_push sc (pack_pair l b))
            (ensure_c v ~block cond.comp_of.(lts.tgt.(j)))
      done
    done;
    scratch_flush_sorted sc

  let ensure_w v ~block c0 =
    (match v.get_w c0 with
    | Some _ -> ()
    | None ->
        let cond = v.vt.cond in
        let stack = ref [ c0 ] in
        while !stack <> [] do
          match !stack with
          | [] -> ()
          | c :: rest -> (
              match v.get_w c with
              | Some _ -> stack := rest
              | None ->
                  let pending = ref [] in
                  for i = cond.tau_row.(c) to cond.tau_row.(c + 1) - 1 do
                    let d = cond.tau_tgt.(i) in
                    match v.get_w d with
                    | Some _ -> ()
                    | None -> pending := d :: !pending
                  done;
                  if !pending = [] then begin
                    ignore (v.set_w c (compute_w v ~block c));
                    stack := rest
                  end
                  else stack := List.rev_append !pending !stack)
        done);
    match v.get_w c0 with Some a -> a | None -> assert false

  let view_signature v block s =
    let c = v.vt.cond.comp_of.(s) in
    match v.get_w c with
    | Some w ->
        v.vstats.hits <- v.vstats.hits + 1;
        w
    | None -> ensure_w v ~block c

  let parent_view t =
    {
      vt = t;
      get_c = (fun c -> t.c_set.(c));
      set_c =
        (fun c a ->
          let a = intern t.pool t.stats a in
          t.c_set.(c) <- Some a;
          t.stats.misses <- t.stats.misses + 1;
          a);
      get_w = (fun c -> t.w_set.(c));
      set_w =
        (fun c a ->
          let a = intern t.pool t.stats a in
          t.w_set.(c) <- Some a;
          t.stats.misses <- t.stats.misses + 1;
          a);
      vstats = t.stats;
      sc_c = scratch_create ();
      sc_w = scratch_create ();
    }

  let signature_fn t =
    let v = parent_view t in
    fun block s -> view_signature v block s

  type shard = {
    sh_parent : t;
    sh_c : int array Int_tbl.t;
    sh_w : int array Int_tbl.t;
    sh_stats : stats;
  }

  let shard t =
    { sh_parent = t; sh_c = Int_tbl.create 256; sh_w = Int_tbl.create 256;
      sh_stats = fresh_stats () }

  (* During a parallel round the parent is frozen (the coordinator is
     blocked in the pool call), so workers read it lock-free and write
     only their own shard tables. *)
  let shard_view sh =
    let t = sh.sh_parent in
    {
      vt = t;
      get_c =
        (fun c ->
          match t.c_set.(c) with
          | Some _ as r -> r
          | None -> Int_tbl.find_opt sh.sh_c c);
      set_c =
        (fun c a ->
          Int_tbl.replace sh.sh_c c a;
          sh.sh_stats.misses <- sh.sh_stats.misses + 1;
          a);
      get_w =
        (fun c ->
          match t.w_set.(c) with
          | Some _ as r -> r
          | None -> Int_tbl.find_opt sh.sh_w c);
      set_w =
        (fun c a ->
          Int_tbl.replace sh.sh_w c a;
          sh.sh_stats.misses <- sh.sh_stats.misses + 1;
          a);
      vstats = sh.sh_stats;
      sc_c = scratch_create ();
      sc_w = scratch_create ();
    }

  let shard_signature_fn sh =
    let v = shard_view sh in
    fun block s -> view_signature v block s

  (* Coordinator-side, after all workers joined (Pool's ordered finish):
     adopt shard entries the parent does not hold yet. Shards may have
     computed the same component concurrently; the values are
     content-equal by construction, so first-wins adoption is sound and
     the interned canonical array is deterministic in content. *)
  let merge_shard t sh =
    Int_tbl.iter
      (fun c a ->
        match t.c_set.(c) with
        | Some _ -> ()
        | None -> t.c_set.(c) <- Some (intern t.pool t.stats a))
      sh.sh_c;
    Int_tbl.iter
      (fun c a ->
        match t.w_set.(c) with
        | Some _ -> ()
        | None -> t.w_set.(c) <- Some (intern t.pool t.stats a))
      sh.sh_w;
    t.stats.hits <- t.stats.hits + sh.sh_stats.hits;
    t.stats.misses <- t.stats.misses + sh.sh_stats.misses

  let advance t ~old_block ~new_block =
    let rename = renaming ~old_block ~new_block in
    Arr_tbl.reset t.pool;
    t.stats.bytes <- 0;
    let memo = Arr_tbl.create 64 in
    advance_slots t.pool t.stats memo rename t.c_set;
    advance_slots t.pool t.stats memo rename t.w_set

  let record t =
    let module I = Dpma_obs.Instruments in
    let module M = Dpma_obs.Metrics in
    M.add I.bisim_tau_cache_hits t.stats.hits;
    M.add I.bisim_tau_cache_misses t.stats.misses;
    M.add I.bisim_tau_cache_remaps t.stats.remaps;
    M.add I.bisim_tau_cache_invalidations t.stats.invalidations;
    M.set I.bisim_tau_components (float_of_int t.cond.num_comps);
    M.set I.bisim_tau_closure_bytes (float_of_int t.stats.bytes_peak);
    t.stats.hits <- 0;
    t.stats.misses <- 0;
    t.stats.remaps <- 0;
    t.stats.invalidations <- 0
end

(* ------------------------------------------------------------------ *)
(* Materialized saturation                                              *)

(* The lazy cache above answers signature queries without ever building
   the double-arrow relation; the functions below build it, for the few
   places that need actual weak transitions: [Bisim.minimize_weak]'s
   output (saturated at quotient size) and the diagnostics replay of a
   distinguishing formula over a small model. *)

let tau_closure (lts : Lts.t) =
  (* For each state, the set of states reachable through tau transitions,
     including itself, as a sorted int list. *)
  let n = lts.num_states in
  let closure = Array.make n [] in
  let scratch = Array.make n false in
  for s = 0 to n - 1 do
    let seen = scratch in
    let stack = ref [ s ] in
    let acc = ref [] in
    seen.(s) <- true;
    while !stack <> [] do
      match !stack with
      | [] -> ()
      | x :: rest ->
          stack := rest;
          acc := x :: !acc;
          for i = lts.row.(x) to lts.row.(x + 1) - 1 do
            let t = lts.tgt.(i) in
            if lts.lab.(i) = Lts.tau && not seen.(t) then begin
              seen.(t) <- true;
              stack := t :: !stack
            end
          done
    done;
    List.iter (fun x -> scratch.(x) <- false) !acc;
    closure.(s) <- List.sort Int.compare !acc
  done;
  closure

let saturate_impl (lts : Lts.t) =
  let n = lts.num_states in
  let closure = tau_closure lts in
  let trans = Array.make n [] in
  let seen = Int_tbl.create 256 in
  for s = 0 to n - 1 do
    Int_tbl.reset seen;
    let add label target =
      let key = pack_pair label target in
      if not (Int_tbl.mem seen key) then begin
        Int_tbl.add seen key ();
        trans.(s) <- { Lts.label; rate = None; target } :: trans.(s)
      end
    in
    (* s =tau*=> s' gives weak internal moves to everything in closure. *)
    List.iter (fun s' -> add Lts.tau s') closure.(s);
    (* s =tau*=> s1 -a-> s2 =tau*=> t gives weak observable moves. *)
    List.iter
      (fun s1 ->
        for i = lts.row.(s1) to lts.row.(s1 + 1) - 1 do
          let l = lts.lab.(i) in
          if l <> Lts.tau then
            List.iter (fun t -> add l t) closure.(lts.tgt.(i))
        done)
      closure.(s)
  done;
  Lts.make ~init:lts.init ~state_name:lts.state_name trans

let saturate ?(traced = true) lts =
  if traced then
    Dpma_obs.Trace.with_span "bisim.saturate"
      ~attrs:[ ("states", Dpma_obs.Trace.Int lts.Lts.num_states) ] (fun () ->
        saturate_impl lts)
  else saturate_impl lts
