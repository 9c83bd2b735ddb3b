(* Featured SOS derivation over a family of hash-consed specifications.
   See feature.mli for the contract. The analysis rests on one property of
   the memoized SOS: deriving a term consults the definitions only through
   the unguarded-call closure of the term (Call nodes are unfolded until a
   Prefix guards them, and Prefix continuations are never entered), so two
   configurations agree on derive(t) as soon as they agree — physically,
   thanks to hash-consing — on the bodies of every affected constant in
   that closure. *)

module Str_tbl = Hashtbl.Make (struct
  type t = string

  let equal = String.equal
  let hash = Hashtbl.hash
end)

module Int_tbl = Hashtbl.Make (Int)

type t = {
  nconfigs : int;
  engines : Semantics.engine array;
  inits : Term.t array;
  all : int array;  (* [|0; ...; N-1|], shared by every insensitive group *)
  name_ids : int Str_tbl.t;
  name_sens : bool array;
      (* an affected constant occurs in the name's unguarded closure *)
  closure_keys : (int * int) array option array array;
      (* closure_keys.(name).(config): the (name id, body uid) pairs of
         the affected constants in the name's unguarded closure under that
         configuration, sorted; [None] when the name is undefined there *)
  calls_tbl : int array Int_tbl.t;
      (* term uid -> sorted name ids of its unguarded Calls; written only
         by merge_shard / between rounds, read lock-free by shards *)
}

let nconfigs fe = fe.nconfigs
let inits fe = Array.copy fe.inits

let sos_stats fe =
  Array.fold_left
    (fun acc e ->
      let s = Semantics.stats e in
      Semantics.{ hits = acc.hits + s.hits; misses = acc.misses + s.misses })
    Semantics.{ hits = 0; misses = 0 }
    fe.engines

(* Sorted distinct name ids of the unguarded [Call]s of a term: the calls
   reachable without crossing a [Prefix]. *)
let calls_of_term name_ids t =
  let acc = ref [] in
  let rec go (t : Term.t) =
    match t.Term.node with
    | Term.Stop | Term.Prefix _ -> ()
    | Term.Call n -> (
        match Str_tbl.find_opt name_ids n with
        | Some id -> acc := id :: !acc
        | None ->
            invalid_arg
              (Printf.sprintf "Feature: constant %s undefined in the family" n))
    | Term.Choice ts -> List.iter go ts
    | Term.Par (l, _, r) ->
        go l;
        go r
    | Term.Hide (_, t') | Term.Restrict (_, t') | Term.Rename (_, t') -> go t'
  in
  go t;
  Array.of_list (List.sort_uniq Int.compare !acc)

let pair_compare (a1, b1) (a2, b2) =
  let c = Int.compare a1 a2 in
  if c <> 0 then c else Int.compare b1 b2

let key_equal (a : (int * int) array) b =
  a == b
  || Array.length a = Array.length b
     &&
     let rec eq i =
       i < 0
       ||
       let xa, ya = a.(i) and xb, yb = b.(i) in
       xa = xb && ya = yb && eq (i - 1)
     in
     eq (Array.length a - 1)

let make specs =
  let nconfigs = Array.length specs in
  if nconfigs = 0 then invalid_arg "Feature.make: empty family";
  let engines = Array.map (fun s -> Semantics.make s.Term.defs) specs in
  let inits = Array.map (fun s -> s.Term.init) specs in
  (* Union constant table, ids in first-appearance order (configuration
     order, then definition order) so the analysis is independent of any
     hash iteration order. *)
  let name_ids = Str_tbl.create 64 in
  let names = ref [] in
  Array.iter
    (fun s ->
      List.iter
        (fun (n, _) ->
          if not (Str_tbl.mem name_ids n) then begin
            Str_tbl.add name_ids n (Str_tbl.length name_ids);
            names := n :: !names
          end)
        s.Term.defs)
    specs;
  let num_names = Str_tbl.length name_ids in
  let names = Array.of_list (List.rev !names) in
  let bodies = Array.make_matrix num_names nconfigs None in
  Array.iteri
    (fun c s ->
      List.iter
        (fun (n, b) -> bodies.(Str_tbl.find name_ids n).(c) <- Some b)
        s.Term.defs)
    specs;
  (* Affected: the bodies are not one physically shared term across every
     configuration (hash-consing makes structural and physical equality
     coincide). A constant missing somewhere is affected by definition. *)
  let affected =
    Array.init num_names (fun n ->
        match bodies.(n).(0) with
        | None -> true
        | Some b0 ->
            not
              (Array.for_all
                 (function Some b -> b == b0 | None -> false)
                 bodies.(n)))
  in
  (* Sensitivity: affected, or an affected constant in the unguarded-call
     closure. Unaffected constants have one uniform body, so following
     configuration 0 suffices; guarded recursion keeps this graph acyclic. *)
  let name_sens = Array.make num_names false in
  let sens_done = Array.make num_names false in
  let rec sens n =
    if sens_done.(n) then name_sens.(n)
    else begin
      let v =
        affected.(n)
        ||
        match bodies.(n).(0) with
        | None -> true
        | Some b -> Array.exists sens (calls_of_term name_ids b)
      in
      sens_done.(n) <- true;
      name_sens.(n) <- v;
      v
    end
  in
  for n = 0 to num_names - 1 do
    ignore (sens n : bool)
  done;
  (* Closure keys, eagerly for every (name, configuration): within one
     configuration the definitions are validated closed, so the recursion
     only hits [None] at the very top (a constant absent from that
     configuration altogether). *)
  let closure_keys = Array.make_matrix num_names nconfigs None in
  let keys_done = Array.make_matrix num_names nconfigs false in
  let rec key_of n c =
    if keys_done.(n).(c) then closure_keys.(n).(c)
    else begin
      let k =
        match bodies.(n).(c) with
        | None -> None
        | Some b ->
            let here = if affected.(n) then [ (n, b.Term.uid) ] else [] in
            let parts =
              Array.fold_left
                (fun acc m ->
                  match key_of m c with
                  | None ->
                      invalid_arg
                        (Printf.sprintf
                           "Feature.make: %s undefined under a configuration \
                            that defines %s"
                           names.(m) names.(n))
                  | Some k -> Array.to_list k @ acc)
                here
                (calls_of_term name_ids b)
            in
            Some (Array.of_list (List.sort_uniq pair_compare parts))
      in
      keys_done.(n).(c) <- true;
      closure_keys.(n).(c) <- k;
      k
    end
  in
  for n = 0 to num_names - 1 do
    for c = 0 to nconfigs - 1 do
      ignore (key_of n c : (int * int) array option)
    done
  done;
  {
    nconfigs;
    engines;
    inits;
    all = Array.init nconfigs Fun.id;
    name_ids;
    name_sens;
    closure_keys;
    calls_tbl = Int_tbl.create 1024;
  }

type group = { configs : int array; steps : (Label.t * Rate.t * Term.t) list }

type shard = {
  parent : t;
  sems : Semantics.shard option array;
      (* created on a configuration's first derivation in this shard *)
  mutable created : Semantics.shard list;  (* the [Some] entries of [sems] *)
  local_calls : int array Int_tbl.t;
}

let shard fe =
  {
    parent = fe;
    sems = Array.make fe.nconfigs None;
    created = [];
    local_calls = Int_tbl.create 256;
  }

(* A configuration's SOS shard, created on first use. Creating a shard
   only reads its (eager) parent engine, so a worker domain may do it. *)
let sem sh c =
  match sh.sems.(c) with
  | Some s -> s
  | None ->
      let s = Semantics.shard sh.parent.engines.(c) in
      sh.sems.(c) <- Some s;
      sh.created <- s :: sh.created;
      s

let merge_shard sh =
  List.iter Semantics.merge_shard sh.created;
  Int_tbl.iter
    (fun uid cs ->
      if not (Int_tbl.mem sh.parent.calls_tbl uid) then
        Int_tbl.add sh.parent.calls_tbl uid cs)
    sh.local_calls;
  Int_tbl.reset sh.local_calls

let calls sh (t : Term.t) =
  match Int_tbl.find_opt sh.local_calls t.Term.uid with
  | Some a -> a
  | None -> (
      match Int_tbl.find_opt sh.parent.calls_tbl t.Term.uid with
      | Some a -> a
      | None ->
          let a = calls_of_term sh.parent.name_ids t in
          Int_tbl.add sh.local_calls t.Term.uid a;
          a)

(* The grouping key of a sensitive term under one configuration: merged
   closure keys of its unguarded calls, or [None] when some call is
   undefined there (the term is unreachable under that configuration). *)
let state_key fe cs c =
  let exception Missing in
  try
    let parts =
      Array.fold_left
        (fun acc n ->
          match fe.closure_keys.(n).(c) with
          | None -> raise Missing
          | Some k -> k :: acc)
        [] cs
    in
    match parts with
    | [] -> Some [||]
    | [ k ] -> Some k
    | parts ->
        Some
          (Array.of_list
             (List.sort_uniq pair_compare
                (List.concat_map Array.to_list parts)))
  with Missing -> None

type pre_group = {
  gfirst : int;
  mutable gconfigs : int list;  (* reversed *)
}

module Key_tbl = Hashtbl.Make (struct
  type t = (int * int) array

  let equal = key_equal

  let hash a =
    Dpma_util.Hash.int
      (Array.fold_left
         (fun h (x, y) -> Dpma_util.Hash.fold (Dpma_util.Hash.fold h x) y)
         (Array.length a) a)
end)

let derive_in sh t =
  let fe = sh.parent in
  let cs = calls sh t in
  if not (Array.exists (fun n -> fe.name_sens.(n)) cs) then
    [ { configs = fe.all; steps = Semantics.derive_in (sem sh 0) t } ]
  else begin
    (* Group the configurations by key, in first-configuration order:
       every configuration of a group derives to the same transition
       list, so one derivation (under the group's first configuration)
       serves them all. Hashtable lookup keeps the grouping O(configs),
       not O(configs * groups); the emitted group order (first
       appearance) is pinned by the side list. *)
    let tbl = Key_tbl.create 16 in
    let groups = ref [] in
    for c = 0 to fe.nconfigs - 1 do
      match state_key fe cs c with
      | None -> ()
      | Some k -> (
          match Key_tbl.find_opt tbl k with
          | Some g -> g.gconfigs <- c :: g.gconfigs
          | None ->
              let g = { gfirst = c; gconfigs = [ c ] } in
              Key_tbl.add tbl k g;
              groups := g :: !groups)
    done;
    List.rev_map
      (fun g ->
        {
          configs = Array.of_list (List.rev g.gconfigs);
          steps = Semantics.derive_in (sem sh g.gfirst) t;
        })
      !groups
  end
