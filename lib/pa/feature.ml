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

module Ints_tbl = Hashtbl.Make (Dpma_util.Hash.Ints)

type t = {
  nconfigs : int;
  engines : Semantics.engine array;
  inits : Term.t array;
  all : int array;  (* [|0; ...; N-1|], shared by every insensitive group *)
  name_ids : int Str_tbl.t;
  name_sens : bool array;
      (* an affected constant occurs in the name's unguarded closure *)
  key_ids : int array array;
      (* key_ids.(name).(config), for a sensitive name: a small id of the
         bodies of the affected constants in the name's unguarded closure
         under that configuration, [-1] when the name is undefined there;
         [||] for an insensitive name *)
  calls_tbl : int array Int_tbl.t;
      (* term uid -> sorted ids of the sensitive names among its unguarded
         Calls; written only by merge_shard / between rounds, read
         lock-free by shards *)
}

let inits fe = Array.copy fe.inits

let sos_stats fe =
  Array.fold_left
    (fun acc e ->
      let s = Semantics.stats e in
      Semantics.{ hits = acc.hits + s.hits; misses = acc.misses + s.misses })
    Semantics.{ hits = 0; misses = 0 }
    fe.engines

(* Sorted distinct name ids of the unguarded [Call]s of a term (the calls
   reachable without crossing a [Prefix]) that satisfy [keep]. *)
let calls_of_term ?(keep = fun _ -> true) name_ids t =
  let acc = ref [] in
  let rec go (t : Term.t) =
    match t.Term.node with
    | Term.Stop | Term.Prefix _ -> ()
    | Term.Call n -> (
        match Str_tbl.find_opt name_ids n with
        | Some id -> if keep id then acc := id :: !acc
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
  (* The sensitive unguarded calls of a body, memoized on its uid: an
     unaffected body is one term for the whole family. *)
  let body_calls = Int_tbl.create 64 in
  let calls_of_body (b : Term.t) =
    match Int_tbl.find_opt body_calls b.Term.uid with
    | Some cs -> cs
    | None ->
        let cs = calls_of_term ~keep:(fun m -> name_sens.(m)) name_ids b in
        Int_tbl.add body_calls b.Term.uid cs;
        cs
  in
  (* Closure key ids, eagerly for every (sensitive name, configuration).
     A name's key under a configuration is its own body's uid if it is
     affected, followed by the key ids of the sensitive names its body
     calls unguarded (insensitive ones contribute nothing that varies);
     keys are interned per name, ids counting from 0 in configuration
     order. Two configurations get one id exactly when every affected
     constant of the closure has the same body under both, i.e. when
     their sets of (affected name, body) pairs over the closure agree —
     a term's tuple of key ids therefore groups configurations exactly
     as those merged sets would. Within one configuration the
     definitions are validated closed, so an undefined callee means a
     constant absent from that configuration altogether. *)
  let key_ids =
    Array.init num_names (fun n ->
        if name_sens.(n) then Array.make nconfigs (-2) else [||])
  in
  let key_tbls = Array.init num_names (fun _ -> Ints_tbl.create 16) in
  let rec key_id n c =
    let ids = key_ids.(n) in
    if ids.(c) <> -2 then ids.(c)
    else begin
      let k =
        match bodies.(n).(c) with
        | None -> -1
        | Some b ->
            let cs = calls_of_body b in
            let key = Array.make (Array.length cs + 1) (-1) in
            if affected.(n) then key.(0) <- b.Term.uid;
            Array.iteri
              (fun i m ->
                let km = key_id m c in
                if km < 0 then
                  invalid_arg
                    (Printf.sprintf
                       "Feature.make: %s undefined under a configuration \
                        that defines %s"
                       names.(m) names.(n));
                key.(i + 1) <- km)
              cs;
            let tbl = key_tbls.(n) in
            (match Ints_tbl.find_opt tbl key with
            | Some id -> id
            | None ->
                let id = Ints_tbl.length tbl in
                Ints_tbl.add tbl key id;
                id)
      in
      ids.(c) <- k;
      k
    end
  in
  for n = 0 to num_names - 1 do
    if name_sens.(n) then
      for c = 0 to nconfigs - 1 do
        ignore (key_id n c : int)
      done
  done;
  {
    nconfigs;
    engines;
    inits;
    all = Array.init nconfigs Fun.id;
    name_ids;
    name_sens;
    key_ids;
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

let merge_shard sh =
  List.iter Semantics.merge_shard sh.created;
  Int_tbl.iter
    (fun uid cs ->
      if not (Int_tbl.mem sh.parent.calls_tbl uid) then
        Int_tbl.add sh.parent.calls_tbl uid cs)
    sh.local_calls;
  Int_tbl.reset sh.local_calls

(* The sensitive unguarded calls of a term; empty for an insensitive
   term. *)
let calls sh (t : Term.t) =
  match Int_tbl.find_opt sh.local_calls t.Term.uid with
  | Some a -> a
  | None -> (
      match Int_tbl.find_opt sh.parent.calls_tbl t.Term.uid with
      | Some a -> a
      | None ->
          let fe = sh.parent in
          let a =
            calls_of_term ~keep:(fun n -> fe.name_sens.(n)) fe.name_ids t
          in
          Int_tbl.add sh.local_calls t.Term.uid a;
          a)

let insensitive sh t = Array.length (calls sh t) = 0

(* A configuration's SOS shard, created on first use. Creating a shard
   only reads its (eager) parent engine, so a worker domain may do it.
   An insensitive subterm derives alike under every configuration, so
   every other configuration's shard routes it to configuration 0's:
   derived once per round, not once per group head. *)
let rec sem sh c =
  match sh.sems.(c) with
  | Some s -> s
  | None ->
      let route = if c = 0 then None else Some (insensitive sh, sem sh 0) in
      let s = Semantics.shard ?route sh.parent.engines.(c) in
      sh.sems.(c) <- Some s;
      sh.created <- s :: sh.created;
      s

type pre_group = {
  gfirst : int;
  mutable gconfigs : int list;  (* reversed *)
}

let derive_in sh t =
  let fe = sh.parent in
  let cs = calls sh t in
  if Array.length cs = 0 then
    [ { configs = fe.all; steps = Semantics.derive_in (sem sh 0) t } ]
  else begin
    (* Group the configurations by the tuple of their calls' key ids, in
       first-configuration order: every configuration of a group derives
       to the same transition list, so one derivation (under the group's
       first configuration) serves them all. Hashtable lookup keeps the
       grouping O(configs), not O(configs * groups); the emitted group
       order (first appearance) is pinned by the side list. A
       configuration under which some call is undefined has no group:
       the term is unreachable there. *)
    let tbl = Ints_tbl.create 16 in
    let groups = ref [] in
    let k = Array.make (Array.length cs) 0 in
    for c = 0 to fe.nconfigs - 1 do
      let defined = ref true in
      for i = 0 to Array.length cs - 1 do
        let id = fe.key_ids.(cs.(i)).(c) in
        if id < 0 then defined := false;
        k.(i) <- id
      done;
      if !defined then
        match Ints_tbl.find_opt tbl k with
        | Some g -> g.gconfigs <- c :: g.gconfigs
        | None ->
            let g = { gfirst = c; gconfigs = [ c ] } in
            Ints_tbl.add tbl (Array.copy k) g;
            groups := g :: !groups
    done;
    List.rev_map
      (fun g ->
        {
          configs = Array.of_list (List.rev g.gconfigs);
          steps = Semantics.derive_in (sem sh g.gfirst) t;
        })
      !groups
  end
