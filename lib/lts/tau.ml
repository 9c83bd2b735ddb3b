(* On-the-fly weak saturation: tau-SCC condensation of the packed CSR and
   the per-round weak signature pass over it.

   [Bisim]'s weak refinement asks, each round, for the weak signature of
   every state — the packed (label, block) pairs reachable through
   [=tau*=> -a-> =tau*=>] moves — without materializing the saturated
   transition relation. All states of one tau-SCC are mutually
   tau-reachable and therefore share one weak signature, so the unit of
   work is a component of the condensation DAG. Two layers:

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
   edges only; W additionally reads the C of observable target
   components, which can sit anywhere in the DAG — which is why the two
   layers are filled in two separate passes.

   Condensation runs once per LTS; the C and W passes run once per
   round, in component-id order (Tarjan numbers components in reverse
   topological order, so every dependency is already final), and
   nothing is carried from one round to the next. The round's W arrays
   are interned: equal sets share one canonical array, so the payload
   held while workers read it is bounded by the number of distinct
   signatures (docs/WEAK_EQUIVALENCE.md works out the memory model and
   the quadratic counterexample). *)

module Scc = Dpma_util.Scc

(* Must match [Bisim]'s packing exactly: the arrays produced here feed
   the same signature tables the saturated oracle path fills. *)
let pack_pair label block = (label lsl 31) lor block

module Int_tbl = Hashtbl.Make (Dpma_util.Hash.Int)

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
(* Weak signatures: one C / W pass per round                            *)

module Arr_tbl = Hashtbl.Make (Dpma_util.Hash.Ints)

(* Reusable int scratch for the C and W passes: pushes are amortized
   O(1) into a growable array, and [scratch_flush_sorted] sorts the live
   prefix, dedups in place, and copies out an exact-length array —
   replacing a cons-cell list plus [List.sort_uniq] per component. *)
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

(* C(c) for every component, in id order: every condensed tau edge
   points to a smaller id, so the C of each tau successor is final when
   [c] is reached. *)
let closure_blocks cond block sc =
  let c_set = Array.make cond.num_comps [||] in
  for c = 0 to cond.num_comps - 1 do
    c_set.(c) <-
      (if
         cond.mem_row.(c + 1) - cond.mem_row.(c) = 1
         && cond.tau_row.(c + 1) = cond.tau_row.(c)
       then
         (* Singleton fast path — the overwhelmingly common shape on
            tau-thin models, where nearly every component is one state
            with no condensed tau successors: C is its own block,
            already sorted and deduped. *)
         [| block.(cond.members.(cond.mem_row.(c))) |]
       else begin
         for i = cond.mem_row.(c) to cond.mem_row.(c + 1) - 1 do
           scratch_push sc block.(cond.members.(i))
         done;
         for i = cond.tau_row.(c) to cond.tau_row.(c + 1) - 1 do
           Array.iter (scratch_push sc) c_set.(cond.tau_tgt.(i))
         done;
         scratch_flush_sorted sc
       end)
  done;
  c_set

let weak_signatures (lts : Lts.t) =
  let cond =
    Dpma_obs.Trace.with_span "bisim.tau.condense"
      ~attrs:[ ("states", Dpma_obs.Trace.Int lts.num_states) ] (fun () ->
        condense lts)
  in
  Dpma_obs.Metrics.set Dpma_obs.Instruments.bisim_tau_components
    (float_of_int cond.num_comps);
  fun block ->
    let sc = scratch_create () in
    let c_set = closure_blocks cond block sc in
    (* W(c) in id order, for the same reason as C; it also reads the C of
       observable targets anywhere in the DAG, all final by now. Equal
       sets share one canonical array, so the round's payload is bounded
       by its distinct signatures. *)
    let pool = Arr_tbl.create 256 in
    let w_set = Array.make cond.num_comps [||] in
    for c = 0 to cond.num_comps - 1 do
      Array.iter (fun b -> scratch_push sc (pack_pair Lts.tau b)) c_set.(c);
      for i = cond.tau_row.(c) to cond.tau_row.(c + 1) - 1 do
        Array.iter (scratch_push sc) w_set.(cond.tau_tgt.(i))
      done;
      for i = cond.mem_row.(c) to cond.mem_row.(c + 1) - 1 do
        let x = cond.members.(i) in
        for j = lts.row.(x) to lts.row.(x + 1) - 1 do
          let l = lts.lab.(j) in
          if l <> Lts.tau then
            Array.iter
              (fun b -> scratch_push sc (pack_pair l b))
              c_set.(cond.comp_of.(lts.tgt.(j)))
        done
      done;
      let w = scratch_flush_sorted sc in
      w_set.(c) <-
        (match Arr_tbl.find_opt pool w with
        | Some canonical -> canonical
        | None ->
            Arr_tbl.add pool w w;
            w)
    done;
    fun s -> w_set.(cond.comp_of.(s))

(* ------------------------------------------------------------------ *)
(* Materialized saturation                                              *)

(* [weak_signatures] answers signature queries without ever building
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

(* A state's weak moves are written in reverse insertion order: tau
   moves to its closure, then observable moves per emitter, each (label,
   target) once. *)
let saturate (lts : Lts.t) =
  let closure = tau_closure lts in
  let w = Lts.writer (Lts.num_transitions lts) in
  let seen = Int_tbl.create 256 in
  for s = 0 to lts.num_states - 1 do
    Int_tbl.reset seen;
    let add label target =
      let key = pack_pair label target in
      if not (Int_tbl.mem seen key) then begin
        Int_tbl.add seen key ();
        Lts.add_edge w label target
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
      closure.(s);
    Lts.close_state ~reverse:true w
  done;
  Lts.finish w ~init:lts.init ~state_name:lts.state_name
