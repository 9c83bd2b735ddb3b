module Lset = Term.Lset

(* The memo tables are keyed by term uid on every single derivation, so
   they use a monomorphic table with a multiplicative (Fibonacci) mix of
   the dense uids instead of the generic [Hashtbl.hash] runtime call. *)
module Uid_tbl = Hashtbl.Make (struct
  type t = int

  let equal : int -> int -> bool = Int.equal

  let hash x = (x * 0x9E37_79B9) land max_int
end)

exception Sync_error of { action : string; message : string }

type trans = (Label.t * Rate.t * Term.t) list

(* Synchronization actions are derived in alphabetical name order (the
   order the string-set representation used to give), so transition
   lists, and hence BFS state numbering downstream, do not depend on label
   interning order. Each sync set's name-ordered action list is computed
   once per engine and shared with its shards. Sets are keyed by
   identity: a derived successor carries its parent's set, so a model
   reaches only the few sets its elaboration built. The list only grows,
   by compare-and-set, so shards on other domains read it without a
   lock. *)
type sync_orders = (Lset.t * Label.t list) list Atomic.t

let rec assq_set s = function
  | [] -> None
  | (s', l) :: rest -> if s' == s then Some l else assq_set s rest

let rec sync_order (orders : sync_orders) s =
  let known = Atomic.get orders in
  match assq_set s known with
  | Some l -> l
  | None ->
      let l = Lset.elements s |> List.sort Label.compare_by_name in
      if Atomic.compare_and_set orders known ((s, l) :: known) then l
      else sync_order orders s

(* The recursive derivation core is parameterized over a cache so the same
   code path serves the serialized engine (mutex-protected memo, atomic
   hit/miss counters) and the per-worker shards of the parallel builder
   (lock-free local table in front of a frozen parent memo). [c_find]
   counts the hits and [c_miss] the misses (derivations computed), so a
   term routed elsewhere by [c_route] is counted once, by the cache that
   answers it. [c_store] memoizes a computed derivation. *)
type cache = {
  c_defs : Term.defs;
  c_find : int -> trans option;
  c_miss : unit -> unit;
  c_store : int -> trans -> unit;
  c_route : ((Term.t -> bool) * cache) option;
  c_sync : sync_orders;
}

(* Memo tables start small and grow: a featured build creates one engine
   per configuration, most of which derive little. *)
let initial_buckets = 16

type engine = {
  defs : Term.defs;
  memo : trans Uid_tbl.t;
  memo_lock : Mutex.t;
  hits : int Atomic.t;
  misses : int Atomic.t;
  cache : cache;
}

type shard = {
  sh_parent : engine;
  (* Only the derivations this shard computed: parent-memo hits are read
     in place, so every entry is one [merge_shard] must offer the
     parent. *)
  sh_local : trans Uid_tbl.t;
  sh_hits : int ref;
  sh_misses : int ref;
  sh_cache : cache;
}

type stats = { hits : int; misses : int }

let make defs =
  let memo = Uid_tbl.create initial_buckets in
  let memo_lock = Mutex.create () in
  let hits = Atomic.make 0 and misses = Atomic.make 0 in
  let c_find uid =
    Mutex.lock memo_lock;
    let r = Uid_tbl.find_opt memo uid in
    Mutex.unlock memo_lock;
    if Option.is_some r then Atomic.incr hits;
    r
  in
  let c_miss () = Atomic.incr misses in
  let c_store uid trans =
    Mutex.lock memo_lock;
    Uid_tbl.replace memo uid trans;
    Mutex.unlock memo_lock
  in
  { defs; memo; memo_lock; hits; misses;
    cache =
      { c_defs = defs; c_find; c_miss; c_store; c_route = None;
        c_sync = Atomic.make [] } }

let stats (e : engine) =
  { hits = Atomic.get e.hits; misses = Atomic.get e.misses }

let shard ?route (e : engine) =
  let local = Uid_tbl.create initial_buckets in
  let hits = ref 0 and misses = ref 0 in
  let c_find uid =
    let r =
      match Uid_tbl.find_opt local uid with
      | Some _ as r -> r
      (* The parent memo is read without the lock: while shards are live
         no domain writes it — workers buffer results locally and the
         coordinator merges them between rounds. *)
      | None -> Uid_tbl.find_opt e.memo uid
    in
    if Option.is_some r then incr hits;
    r
  in
  let c_miss () = incr misses in
  let c_store uid trans = Uid_tbl.replace local uid trans in
  let c_route =
    Option.map (fun (shared, target) -> (shared, target.sh_cache)) route
  in
  { sh_parent = e; sh_local = local; sh_hits = hits; sh_misses = misses;
    sh_cache =
      { c_defs = e.defs; c_find; c_miss; c_store; c_route;
        c_sync = e.cache.c_sync } }

let shard_stats (sh : shard) = { hits = !(sh.sh_hits); misses = !(sh.sh_misses) }

let merge_shard (sh : shard) =
  let e = sh.sh_parent in
  Mutex.lock e.memo_lock;
  Uid_tbl.iter
    (fun uid trans ->
      if not (Uid_tbl.mem e.memo uid) then Uid_tbl.replace e.memo uid trans)
    sh.sh_local;
  Mutex.unlock e.memo_lock;
  ignore (Atomic.fetch_and_add e.hits !(sh.sh_hits));
  ignore (Atomic.fetch_and_add e.misses !(sh.sh_misses));
  sh.sh_hits := 0;
  sh.sh_misses := 0;
  Uid_tbl.reset sh.sh_local

let passive_total trans =
  List.fold_left (fun acc (_, r, _) -> acc +. Rate.apparent_weight r) 0.0 trans

(* [~keep:false] derives without memoizing the term's own derivation:
   an explorer derives each state once, so that entry would never be
   read again. Its subterms are memoized either way. *)
let rec derive_c ?(keep = true) c (t : Term.t) =
  match c.c_find t.uid with
  | Some trans -> trans
  | None -> (
      match c.c_route with
      | Some (shared, target) when shared t -> derive_c ~keep target t
      | _ ->
          c.c_miss ();
          let trans = derive_uncached c t in
          if keep then c.c_store t.uid trans;
          trans)

and derive_uncached c (t : Term.t) =
  match t.node with
  | Stop -> []
  | Prefix (a, r, k) -> [ (a, r, k) ]
  | Choice ts -> List.concat_map (derive_c c) ts
  | Call name -> derive_c c (Term.lookup c.c_defs name)
  | Hide (s, p) ->
      let relabel a = if Lset.mem a s then Label.tau else a in
      List.map
        (fun (a, r, k) -> (relabel a, r, Term.hide_labels s k))
        (derive_c c p)
  | Restrict (s, p) ->
      derive_c c p
      |> List.filter (fun (a, _, _) -> not (Lset.mem a s))
      |> List.map (fun (a, r, k) -> (a, r, Term.restrict_labels s k))
  | Rename (map, p) ->
      List.map
        (fun (a, r, k) ->
          (Term.apply_rename_label map a, r, Term.rename_labels map k))
        (derive_c c p)
  | Par (p, s, q) ->
      let tp = derive_c c p and tq = derive_c c q in
      let left =
        tp
        |> List.filter (fun (a, _, _) -> not (Lset.mem a s))
        |> List.map (fun (a, r, k) -> (a, r, Term.par_labels k s q))
      in
      let right =
        tq
        |> List.filter (fun (a, _, _) -> not (Lset.mem a s))
        |> List.map (fun (a, r, k) -> (a, r, Term.par_labels p s k))
      in
      let sync_on a =
        let on_label = List.filter (fun (b, _, _) -> Label.equal b a) in
        let ps = on_label tp and qs = on_label tq in
        if ps = [] || qs = [] then []
        else begin
          let p_total = passive_total ps and q_total = passive_total qs in
          ps
          |> List.concat_map (fun (_, r1, k1) ->
                 List.map
                   (fun (_, r2, k2) ->
                     let total =
                       (* The normalization constant is the passive side's
                          total apparent weight for this action. *)
                       if Rate.is_passive r2 then q_total else p_total
                     in
                     let rate =
                       try Rate.synchronize r1 r2 ~passive_total:total
                       with Rate.Sync_error message ->
                         raise (Sync_error { action = Label.name a; message })
                     in
                     (a, rate, Term.par_labels k1 s k2))
                   qs)
        end
      in
      let sync = List.concat_map sync_on (sync_order c.c_sync s) in
      left @ right @ sync

let derive (e : engine) t = derive_c e.cache t
let derive_in (sh : shard) t = derive_c ~keep:false sh.sh_cache t
