module Term = Dpma_pa.Term
module Semantics = Dpma_pa.Semantics
module Label = Dpma_pa.Label

type label = Label.t

let tau : label = Label.tau

let obs = Label.intern

let label_name = Label.name

let is_tau l = l = 0

(* Display order, not id order: tau first, then names alphabetically. *)
let label_compare a b =
  if a = b then 0
  else if a = tau then -1
  else if b = tau then 1
  else String.compare (Label.name a) (Label.name b)

let pp_label ppf l = Format.pp_print_string ppf (Label.name l)

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

(* Rates compare by their 64-bit patterns: equal LTSs feed every
   analysis identical numbers. [state_name] is display only. *)
let float_bits x = Int64.bits_of_float x

let equal_fields ~columns ~rates a b =
  let module H = Dpma_util.Hash.Ints in
  a == b
  || (not columns
     || a.init = b.init && H.equal a.row b.row && H.equal a.lab b.lab
        && H.equal a.tgt b.tgt && H.equal a.rate_kind b.rate_kind
        && H.equal a.rate_prio b.rate_prio)
     && Array.length a.rate_val = Array.length b.rate_val
     &&
     let rec go i =
       i < 0
       || ((match rates with
           | `All -> false
           | `Timed -> a.rate_kind.(i) <> 1
           | `Untimed -> a.rate_kind.(i) = 1)
          || Int64.equal (float_bits a.rate_val.(i)) (float_bits b.rate_val.(i)))
          && go (i - 1)
     in
     go (Array.length a.rate_val - 1)

let equal a b = equal_fields ~columns:true ~rates:`All a b

(* --- The CSR writer ------------------------------------------------ *)

(* Row and edge arrays grow by doubling; [finish] trims them to the
   state and edge counts. *)
type writer = {
  mutable w_row : int array;
  mutable w_states : int;
  mutable w_edges : int;
  mutable w_lab : int array;
  mutable w_tgt : int array;
  mutable w_kind : int array;
  mutable w_val : float array;
  mutable w_prio : int array;
}

let writer ?(states = 16) capacity =
  let c = max 16 capacity in
  { w_row = Array.make (max 16 states + 1) 0; w_states = 0; w_edges = 0;
    w_lab = Array.make c 0; w_tgt = Array.make c 0; w_kind = Array.make c 0;
    w_val = Array.make c 0.0; w_prio = Array.make c 0 }

let grow a len zero =
  let b = Array.make (2 * Array.length a) zero in
  Array.blit a 0 b 0 len;
  b

let add_edge w label target =
  let e = w.w_edges in
  if e = Array.length w.w_lab then begin
    w.w_lab <- grow w.w_lab e 0;
    w.w_tgt <- grow w.w_tgt e 0;
    w.w_kind <- grow w.w_kind e 0;
    w.w_val <- grow w.w_val e 0.0;
    w.w_prio <- grow w.w_prio e 0
  end;
  w.w_lab.(e) <- label;
  w.w_tgt.(e) <- target;
  w.w_edges <- e + 1

let copy_edge w lts i ~label ~target =
  add_edge w label target;
  let e = w.w_edges - 1 in
  w.w_kind.(e) <- lts.rate_kind.(i);
  w.w_val.(e) <- lts.rate_val.(i);
  w.w_prio.(e) <- lts.rate_prio.(i)

let close_state ?(reverse = false) w =
  let s = w.w_states in
  if reverse then begin
    let swap a i j =
      let x = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- x
    in
    let i = ref w.w_row.(s) and j = ref (w.w_edges - 1) in
    while !i < !j do
      swap w.w_lab !i !j;
      swap w.w_tgt !i !j;
      swap w.w_kind !i !j;
      swap w.w_val !i !j;
      swap w.w_prio !i !j;
      incr i;
      decr j
    done
  end;
  if s + 1 = Array.length w.w_row then w.w_row <- grow w.w_row (s + 1) 0;
  w.w_row.(s + 1) <- w.w_edges;
  w.w_states <- s + 1

let finish w ~init ~state_name =
  let m = w.w_edges in
  let trim a len = if Array.length a = len then a else Array.sub a 0 len in
  let trim_edges a = trim a m in
  of_csr ~init ~state_name ~row:(trim w.w_row (w.w_states + 1))
    ~lab:(trim_edges w.w_lab) ~tgt:(trim_edges w.w_tgt)
    ~rate_kind:(trim_edges w.w_kind) ~rate_val:(trim_edges w.w_val)
    ~rate_prio:(trim_edges w.w_prio)

let rate_of lts i =
  match lts.rate_kind.(i) with
  | 0 -> None
  | 1 -> Some (Dpma_pa.Rate.Exp lts.rate_val.(i))
  | 2 ->
      Some (Dpma_pa.Rate.Imm { prio = lts.rate_prio.(i); weight = lts.rate_val.(i) })
  | _ -> Some (Dpma_pa.Rate.Passive { weight = lts.rate_val.(i) })

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
  let lab = Array.append a.lab b.lab in
  let tgt = Array.make m 0 in
  Array.blit a.tgt 0 tgt 0 ma;
  for i = 0 to mb - 1 do
    tgt.(ma + i) <- b.tgt.(i) + a.num_states
  done;
  let rate_kind = Array.append a.rate_kind b.rate_kind in
  let rate_val = Array.append a.rate_val b.rate_val in
  let rate_prio = Array.append a.rate_prio b.rate_prio in
  let state_name i =
    if i < a.num_states then a.state_name i
    else b.state_name (i - a.num_states)
  in
  let union =
    { init = a.init; num_states = n; state_name; row; lab; tgt; rate_kind;
      rate_val; rate_prio }
  in
  (union, a.init, b.init + a.num_states)

module Int_tbl = Hashtbl.Make (Dpma_util.Hash.Int)

(* Each block's edges are discovered over its member states in state
   order and written in reverse discovery order, each (label, target
   block) once, with the rate of its first edge. The states of a block
   are grouped by a counting sort, so the blocks are written in id
   order; [owner] maps a packed (label, target block) pair to the last
   block that wrote it, so an edge is a duplicate iff its own block
   did. *)
let quotient lts block =
  Dpma_obs.Trace.with_span "lts.quotient"
    ~attrs:[ ("states", Dpma_obs.Trace.Int lts.num_states) ] (fun () ->
  let n = lts.num_states in
  let num_blocks = 1 + Array.fold_left max (-1) block in
  let start = Array.make (num_blocks + 1) 0 in
  Array.iter (fun b -> start.(b + 1) <- start.(b + 1) + 1) block;
  for b = 0 to num_blocks - 1 do
    start.(b + 1) <- start.(b + 1) + start.(b)
  done;
  let members = Array.make n 0 in
  let next = Array.sub start 0 num_blocks in
  for s = 0 to n - 1 do
    let b = block.(s) in
    members.(next.(b)) <- s;
    next.(b) <- next.(b) + 1
  done;
  let owner = Int_tbl.create 64 in
  let w = writer (num_transitions lts) in
  for b = 0 to num_blocks - 1 do
    for k = start.(b) to start.(b + 1) - 1 do
      let s = members.(k) in
      for i = lts.row.(s) to lts.row.(s + 1) - 1 do
        let label = lts.lab.(i) and target = block.(lts.tgt.(i)) in
        let key = (label lsl 31) lor target in
        match Int_tbl.find_opt owner key with
        | Some b' when b' = b -> ()
        | _ ->
            Int_tbl.replace owner key b;
            copy_edge w lts i ~label ~target
      done
    done;
    close_state ~reverse:true w
  done;
  finish w ~init:block.(lts.init)
    ~state_name:(fun b -> lts.state_name members.(start.(b))))

let copy_states lts states map =
  let w = writer (num_transitions lts) in
  Array.iter
    (fun s ->
      for i = lts.row.(s) to lts.row.(s + 1) - 1 do
        copy_edge w lts i ~label:lts.lab.(i) ~target:map.(lts.tgt.(i))
      done;
      close_state w)
    states;
  finish w ~init:map.(lts.init) ~state_name:(fun i -> lts.state_name states.(i))

(* [f] is resolved once per label id, not per edge: [image.(l)] is
   [unresolved], [removed] or the new label. The kept edges are counted
   first: when every edge is kept only [lab] changes and the result
   shares the other columns with [lts]; otherwise the writer's edge
   columns have their final length and [finish] returns them without
   a trim copy. *)
let map_labels lts f =
  let unresolved = -2 and removed = -1 in
  let image = Array.make (1 + Array.fold_left max 0 lts.lab) unresolved in
  let resolve l =
    let v = image.(l) in
    if v <> unresolved then v
    else begin
      let v = match f l with Some l' -> l' | None -> removed in
      image.(l) <- v;
      v
    end
  in
  let kept = ref 0 in
  for i = 0 to num_transitions lts - 1 do
    if resolve lts.lab.(i) <> removed then incr kept
  done;
  if !kept = num_transitions lts then
    { lts with lab = Array.map (fun l -> image.(l)) lts.lab }
  else begin
    let w = writer ~states:lts.num_states !kept in
    for s = 0 to lts.num_states - 1 do
      for i = lts.row.(s) to lts.row.(s + 1) - 1 do
        let label = image.(lts.lab.(i)) in
        if label <> removed then copy_edge w lts i ~label ~target:lts.tgt.(i)
      done;
      close_state w
    done;
    finish w ~init:lts.init ~state_name:lts.state_name
  end

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
  copy_states lts representative block

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
