module Term = Dpma_pa.Term
module Semantics = Dpma_pa.Semantics
module Label = Dpma_pa.Label

type label = Label.t

let tau : label = Label.tau

let obs = Label.intern

let label_name = Label.name

let is_tau l = l = 0

let label_equal : label -> label -> bool = Int.equal

(* Display order, not id order: tau first, then names alphabetically. *)
let label_compare a b =
  if a = b then 0
  else if a = tau then -1
  else if b = tau then 1
  else String.compare (Label.name a) (Label.name b)

let pp_label ppf l = Format.pp_print_string ppf (Label.name l)

type transition = { label : label; rate : Dpma_pa.Rate.t option; target : int }

type t = {
  init : int;
  num_states : int;
  state_name : int -> string;
  row : int array;
  lab : int array;
  tgt : int array;
  rate_kind : int array;
  rate_val : float array;
  rate_prio : int array;
}

exception Too_many_states = Explore.Too_many_states

let of_csr ~init ~state_name ~row ~lab ~tgt ~rate_kind ~rate_val ~rate_prio =
  let n = Array.length row - 1 in
  if n < 0 then invalid_arg "Lts.of_csr: empty row array";
  let m = row.(n) in
  if Array.length lab <> m || Array.length tgt <> m
     || Array.length rate_kind <> m || Array.length rate_val <> m
     || Array.length rate_prio <> m
  then invalid_arg "Lts.of_csr: edge arrays disagree with the row offsets";
  { init; num_states = n; state_name; row; lab; tgt; rate_kind; rate_val;
    rate_prio }

let pack ~init ~state_name (trans : transition list array) =
  let n = Array.length trans in
  let m = Array.fold_left (fun acc l -> acc + List.length l) 0 trans in
  let row = Array.make (n + 1) 0 in
  let lab = Array.make m 0 in
  let tgt = Array.make m 0 in
  let rate_kind = Array.make m 0 in
  let rate_val = Array.make m 0.0 in
  let rate_prio = Array.make m 0 in
  let e = ref 0 in
  for s = 0 to n - 1 do
    row.(s) <- !e;
    List.iter
      (fun tr ->
        let i = !e in
        lab.(i) <- tr.label;
        tgt.(i) <- tr.target;
        (match tr.rate with
        | None -> ()
        | Some (Dpma_pa.Rate.Exp lambda) ->
            rate_kind.(i) <- 1;
            rate_val.(i) <- lambda
        | Some (Dpma_pa.Rate.Imm { prio; weight }) ->
            rate_kind.(i) <- 2;
            rate_val.(i) <- weight;
            rate_prio.(i) <- prio
        | Some (Dpma_pa.Rate.Passive { weight }) ->
            rate_kind.(i) <- 3;
            rate_val.(i) <- weight);
        incr e)
      trans.(s)
  done;
  row.(n) <- !e;
  { init; num_states = n; state_name; row; lab; tgt; rate_kind; rate_val;
    rate_prio }

let make ~init ~state_name trans =
  let t0 = Dpma_obs.Clock.now_s () in
  let lts = pack ~init ~state_name trans in
  Dpma_obs.Metrics.observe Dpma_obs.Instruments.lts_csr_pack_seconds
    (Dpma_obs.Clock.now_s () -. t0);
  lts

let rate_of lts i =
  match lts.rate_kind.(i) with
  | 0 -> None
  | 1 -> Some (Dpma_pa.Rate.Exp lts.rate_val.(i))
  | 2 ->
      Some (Dpma_pa.Rate.Imm { prio = lts.rate_prio.(i); weight = lts.rate_val.(i) })
  | _ -> Some (Dpma_pa.Rate.Passive { weight = lts.rate_val.(i) })

let transitions_of lts s =
  let rec go i acc =
    if i < lts.row.(s) then acc
    else
      go (i - 1)
        ({ label = lts.lab.(i); rate = rate_of lts i; target = lts.tgt.(i) }
        :: acc)
  in
  go (lts.row.(s + 1) - 1) []

let out_degree lts s = lts.row.(s + 1) - lts.row.(s)

(* --- State-space construction ---------------------------------------- *)

type build_stats = Explore.stats = {
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

let build ?max_states ?jobs ?par_threshold ?spill_dir ?max_resident_bytes
    ?seg_bits (spec : Term.spec) =
  Dpma_obs.Trace.with_span "lts.build" (fun () ->
  let module I = Dpma_obs.Instruments in
  let module M = Dpma_obs.Metrics in
  let engine = Semantics.make spec.defs in
  let finish sh =
    let s = Semantics.shard_stats sh in
    M.observe I.lts_par_derives_per_worker
      (float_of_int (s.Semantics.hits + s.Semantics.misses));
    Semantics.merge_shard sh
  in
  let x =
    Explore.run ?max_states ?jobs ?par_threshold ?spill_dir
      ?max_resident_bytes ?seg_bits ~phase:"lts.build" ~partial:[]
      ~guards:false
      ~shard:(fun () -> Semantics.shard engine)
      ~derive:Semantics.derive_in ~finish
      ~emit:(fun push steps ->
        List.iter (fun (label, rate, k) -> push label rate k 0) steps)
      [| spec.init |]
  in
  M.incr I.lts_builds;
  M.add I.lts_states x.Explore.num_states;
  M.add I.lts_transitions x.Explore.row.(x.Explore.num_states);
  let stats = Semantics.stats engine in
  M.add I.sos_memo_hits stats.Semantics.hits;
  M.add I.sos_memo_misses stats.Semantics.misses;
  M.set I.pa_terms (float_of_int (Term.hashcons_count ()));
  M.set I.pa_labels (float_of_int (Label.count ()));
  M.observe I.lts_build_seconds x.Explore.stats.build_seconds;
  (* State names are rendered lazily: they are only needed in diagnostics. *)
  let term = x.Explore.term in
  ( of_csr ~init:x.Explore.seeds.(0)
      ~state_name:(fun i -> Term.to_string (term i))
      ~row:x.Explore.row ~lab:x.Explore.lab ~tgt:x.Explore.tgt
      ~rate_kind:x.Explore.rate_kind ~rate_val:x.Explore.rate_val
      ~rate_prio:x.Explore.rate_prio,
    x.Explore.stats ))

let of_spec ?max_states ?jobs ?par_threshold ?spill_dir ?max_resident_bytes
    ?seg_bits spec =
  fst
    (build ?max_states ?jobs ?par_threshold ?spill_dir ?max_resident_bytes
       ?seg_bits spec)

let num_transitions lts = lts.row.(lts.num_states)

let labels lts =
  let module Iset = Set.Make (Int) in
  let set = ref Iset.empty in
  Array.iter (fun l -> set := Iset.add l !set) lts.lab;
  Iset.elements !set |> List.sort label_compare

let enabled lts s =
  let rec go i acc =
    if i >= lts.row.(s + 1) then acc else go (i + 1) (lts.lab.(i) :: acc)
  in
  go lts.row.(s) [] |> List.sort_uniq label_compare

let enables_label lts s l =
  let rec go i =
    i < lts.row.(s + 1) && (lts.lab.(i) = l || go (i + 1))
  in
  go lts.row.(s)

let enables_action lts s a =
  match Label.find a with
  | None -> false
  | Some l -> l <> tau && enables_label lts s l

let deadlock_states lts =
  let out = ref [] in
  for s = lts.num_states - 1 downto 0 do
    if lts.row.(s + 1) = lts.row.(s) then out := s :: !out
  done;
  !out

let reachable_from lts start =
  (* Monomorphic BFS: every state enters the queue at most once, so a flat
     int array of capacity [num_states] with head/tail cursors replaces the
     polymorphic [Queue]. *)
  let seen = Array.make lts.num_states false in
  let queue = Array.make lts.num_states 0 in
  let head = ref 0 and tail = ref 0 in
  seen.(start) <- true;
  queue.(!tail) <- start;
  incr tail;
  while !head < !tail do
    let s = queue.(!head) in
    incr head;
    for i = lts.row.(s) to lts.row.(s + 1) - 1 do
      let t = lts.tgt.(i) in
      if not seen.(t) then begin
        seen.(t) <- true;
        queue.(!tail) <- t;
        incr tail
      end
    done
  done;
  seen

let disjoint_union a b =
  let n = a.num_states + b.num_states in
  let ma = num_transitions a and mb = num_transitions b in
  let m = ma + mb in
  let row = Array.make (n + 1) 0 in
  Array.blit a.row 0 row 0 (a.num_states + 1);
  for s = 0 to b.num_states do
    row.(a.num_states + s) <- ma + b.row.(s)
  done;
  let append av bv =
    let out = Array.append av bv in
    out
  in
  let lab = append a.lab b.lab in
  let tgt = Array.make m 0 in
  Array.blit a.tgt 0 tgt 0 ma;
  for i = 0 to mb - 1 do
    tgt.(ma + i) <- b.tgt.(i) + a.num_states
  done;
  let rate_kind = append a.rate_kind b.rate_kind in
  let rate_val = append a.rate_val b.rate_val in
  let rate_prio = append a.rate_prio b.rate_prio in
  let state_name i =
    if i < a.num_states then a.state_name i
    else b.state_name (i - a.num_states)
  in
  let union =
    { init = a.init; num_states = n; state_name; row; lab; tgt; rate_kind;
      rate_val; rate_prio }
  in
  (union, a.init, b.init + a.num_states)

(* Monomorphic dedup table over (block, label, target block) triples. *)
module Triple = struct
  type t = int * int * int

  let equal (a1, b1, c1) (a2, b2, c2) = a1 = a2 && b1 = b2 && c1 = c2

  let hash (a, b, c) = (((a * 31) + b) * 31) + c
end

module Triple_tbl = Hashtbl.Make (Triple)

let quotient lts block =
  Dpma_obs.Trace.with_span "lts.quotient"
    ~attrs:[ ("states", Dpma_obs.Trace.Int lts.num_states) ] (fun () ->
  let num_blocks = 1 + Array.fold_left max (-1) block in
  let seen = Triple_tbl.create 64 in
  let trans = Array.make num_blocks [] in
  let representative = Array.make num_blocks (-1) in
  for s = lts.num_states - 1 downto 0 do
    representative.(block.(s)) <- s
  done;
  for s = 0 to lts.num_states - 1 do
    let b = block.(s) in
    for i = lts.row.(s) to lts.row.(s + 1) - 1 do
      let key = (b, lts.lab.(i), block.(lts.tgt.(i))) in
      if not (Triple_tbl.mem seen key) then begin
        Triple_tbl.add seen key ();
        trans.(b) <-
          { label = lts.lab.(i); rate = rate_of lts i;
            target = block.(lts.tgt.(i)) }
          :: trans.(b)
      end
    done
  done;
  make ~init:block.(lts.init)
    ~state_name:(fun b -> lts.state_name representative.(b))
    trans)

let map_labels lts f =
  (* Rebuild the CSR arrays directly, keeping edge order. *)
  let m = num_transitions lts in
  let keep = Array.make m false in
  let new_lab = Array.make m 0 in
  let kept = ref 0 in
  for i = 0 to m - 1 do
    match f lts.lab.(i) with
    | Some l ->
        keep.(i) <- true;
        new_lab.(i) <- l;
        incr kept
    | None -> ()
  done;
  let m' = !kept in
  let row = Array.make (lts.num_states + 1) 0 in
  let lab = Array.make m' 0 in
  let tgt = Array.make m' 0 in
  let rate_kind = Array.make m' 0 in
  let rate_val = Array.make m' 0.0 in
  let rate_prio = Array.make m' 0 in
  let e = ref 0 in
  for s = 0 to lts.num_states - 1 do
    row.(s) <- !e;
    for i = lts.row.(s) to lts.row.(s + 1) - 1 do
      if keep.(i) then begin
        lab.(!e) <- new_lab.(i);
        tgt.(!e) <- lts.tgt.(i);
        rate_kind.(!e) <- lts.rate_kind.(i);
        rate_val.(!e) <- lts.rate_val.(i);
        rate_prio.(!e) <- lts.rate_prio.(i);
        incr e
      end
    done
  done;
  row.(lts.num_states) <- !e;
  { lts with row; lab; tgt; rate_kind; rate_val; rate_prio }

let hide_all_but lts ~keep =
  map_labels lts (fun l ->
      if l = tau then Some tau
      else if keep (Label.name l) then Some l
      else Some tau)

let restrict lts ~remove =
  map_labels lts (fun l ->
      if l = tau then Some tau
      else if remove (Label.name l) then None
      else Some l)

let pp_stats ppf lts =
  Format.fprintf ppf "%d states, %d transitions, %d labels" lts.num_states
    (num_transitions lts)
    (List.length (labels lts))

let quotient_by_representative lts block =
  let num_blocks = 1 + Array.fold_left max (-1) block in
  let representative = Array.make num_blocks (-1) in
  for s = lts.num_states - 1 downto 0 do
    representative.(block.(s)) <- s
  done;
  let trans =
    Array.init num_blocks (fun b ->
        transitions_of lts representative.(b)
        |> List.map (fun tr -> { tr with target = block.(tr.target) }))
  in
  make ~init:block.(lts.init)
    ~state_name:(fun b -> lts.state_name representative.(b))
    trans

let pp_dot ?(max_states = 2000) ppf lts =
  if lts.num_states > max_states then
    invalid_arg
      (Printf.sprintf "Lts.pp_dot: %d states exceed the %d-state rendering limit"
         lts.num_states max_states);
  (* Backslashes must be escaped before quotes: escaping quotes first
     would double the backslashes it just introduced. *)
  let escape s =
    let buf = Buffer.create (String.length s) in
    String.iter
      (fun c ->
        (match c with '\\' | '"' -> Buffer.add_char buf '\\' | _ -> ());
        Buffer.add_char buf c)
      s;
    Buffer.contents buf
  in
  Format.fprintf ppf "digraph lts {@.";
  Format.fprintf ppf "  rankdir=LR;@.  node [shape=circle, fontsize=10];@.";
  Format.fprintf ppf "  %d [shape=doublecircle];@." lts.init;
  for s = 0 to lts.num_states - 1 do
    for i = lts.row.(s) to lts.row.(s + 1) - 1 do
      let rate =
        match rate_of lts i with
        | None -> ""
        | Some r -> Format.asprintf ", %a" Dpma_pa.Rate.pp r
      in
      Format.fprintf ppf "  %d -> %d [label=\"%s%s\"];@." s lts.tgt.(i)
        (escape (Label.name lts.lab.(i)))
        (escape rate)
    done
  done;
  Format.fprintf ppf "}@."
