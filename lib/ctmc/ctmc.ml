module Lts = Dpma_lts.Lts
module Label = Dpma_pa.Label
module Linalg = Dpma_util.Linalg
module Sparse = Dpma_util.Sparse
module Scc = Dpma_util.Scc
module Obs = Dpma_obs

type t = {
  n : int;
  init_state : int array;
  init_prob : float array;
  row : int array;
  dst : int array;
  rate : float array;
  lab : int array;
  imm_row : int array;
  imm_lab : int array;
  imm_rate : float array;
  enabled_row : int array;
  enabled_lab : int array;
  exit_rate : float array;
}

exception Build_error of string

let dense_threshold = 1500

let label_name = Lts.label_name

(* Growable column for the packed arrays under construction. A column
   created at its final length is never copied. *)
module Buf = struct
  type 'a t = { mutable data : 'a array; mutable len : int; fill : 'a }

  let create cap fill = { data = Array.make cap fill; len = 0; fill }

  let push b x =
    if b.len = Array.length b.data then begin
      let bigger = Array.make (max 16 (2 * b.len)) b.fill in
      Array.blit b.data 0 bigger 0 b.len;
      b.data <- bigger
    end;
    b.data.(b.len) <- x;
    b.len <- b.len + 1

  let contents b =
    if b.len = Array.length b.data then b.data else Array.sub b.data 0 b.len
end

(* Sorts [a.(0 .. len-1)] by [key] (distinct keys). The ranges sorted
   here are a state's distinct targets or labels, usually a handful, so
   short ones take an allocation-free insertion sort. *)
let sort_prefix a len (key : int -> int) =
  if len > 32 then begin
    let sorted = Array.sub a 0 len in
    Array.sort (fun x y -> Int.compare (key x) (key y)) sorted;
    Array.blit sorted 0 a 0 len
  end
  else
    for i = 1 to len - 1 do
      let x = a.(i) in
      let kx = key x in
      let j = ref (i - 1) in
      while !j >= 0 && key a.(!j) > kx do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- x
    done

(* Sums keyed by a dense int (a state or a label id) with stamped cells:
   [open_] starts a new sum in O(1), [add] sums each key's terms in call
   order starting from [0.0], and [keys] lists the touched keys. *)
type scratch = {
  sum : float array;
  stamp : int array;
  keys : int array;
  mutable nkeys : int;
  mutable epoch : int;
}

let scratch n =
  { sum = Array.make n 0.0; stamp = Array.make n 0; keys = Array.make n 0;
    nkeys = 0; epoch = 0 }

let open_ sc =
  sc.epoch <- sc.epoch + 1;
  sc.nkeys <- 0

let add sc k x =
  if sc.stamp.(k) = sc.epoch then sc.sum.(k) <- sc.sum.(k) +. x
  else begin
    sc.stamp.(k) <- sc.epoch;
    sc.sum.(k) <- 0.0 +. x;
    sc.keys.(sc.nkeys) <- k;
    sc.nkeys <- sc.nkeys + 1
  end

(* Everything of a chain that no timed rate feeds: the finished columns
   in [chain] (its [rate], [exit_rate] and [imm_rate] empty), the
   tangible id of each LTS state (-1 when vanishing) and the resolution
   of each vanishing state: its range [d_lo, d_hi) of the distribution
   pool, whose probabilities are [d_prob], and its range [c_lo, c_hi)
   of the count pool, whose immediate labels and expected firings are
   [c_lab] and [c_val]. *)
type plan = {
  chain : t;
  nlabels : int;
  new_id : int array;
  d_lo : int array;
  d_hi : int array;
  d_prob : float array;
  c_lo : int array;
  c_hi : int array;
  c_lab : int array;
  c_val : float array;
}

let plan (lts : Lts.t) =
  let n0 = lts.num_states in
  (* Classify states and validate rates. Tangible states are numbered
     densely in state order; a vanishing state's id is -1. *)
  let new_id = Array.make n0 (-1) in
  let n = ref 0 and max_lab = ref 0 in
  for s = 0 to n0 - 1 do
    let vanishing = ref false in
    for i = lts.row.(s) to lts.row.(s + 1) - 1 do
      if lts.lab.(i) > !max_lab then max_lab := lts.lab.(i);
      match lts.rate_kind.(i) with
      | 0 ->
          raise
            (Build_error
               (Printf.sprintf
                  "state %d has an unrated transition on %s (functional \
                   model fed to the CTMC builder?)"
                  s
                  (label_name lts.lab.(i))))
      | 3 ->
          raise
            (Build_error
               (Printf.sprintf
                  "unsynchronized passive action %s in state %d: every \
                   passive action must be attached to an active partner"
                  (label_name lts.lab.(i)) s))
      | 2 -> vanishing := true
      | _ -> ()
    done;
    if not !vanishing then begin
      new_id.(s) <- !n;
      incr n
    end
  done;
  let n = !n in
  let vanishing s = new_id.(s) < 0 in
  let nlabels = !max_lab + 1 in
  (* Immediate-label counts are listed by label name; ranking the
     immediate labels by name once lets every list sort by int. *)
  let rank = Array.make nlabels 0 in
  let () =
    let seen = Array.make nlabels false in
    Array.iteri
      (fun i k -> if k = 2 then seen.(lts.lab.(i)) <- true)
      lts.rate_kind;
    let imm = ref [] in
    for l = nlabels - 1 downto 0 do
      if seen.(l) then imm := l :: !imm
    done;
    List.iteri
      (fun r l -> rank.(l) <- r)
      (List.sort Label.compare_by_name !imm)
  in
  if n = 0 then raise (Build_error "no tangible state (all states vanishing)");
  (* Resolve a vanishing state to its distribution over tangible states
     (by tangible id), together with the expected number of firings of
     each immediate label along the way (for impulse rewards on
     immediate actions). Memoized DFS over the maximal-priority
     immediate edges; a cycle among vanishing states is a time trap. A
     resolved state owns one range of the distribution pool (targets
     ascending) and one of the count pool (labels by name). *)
  let status = Bytes.make n0 '\000' (* 0 open, 1 in progress, 2 resolved *) in
  let d_lo = Array.make n0 0 and d_hi = Array.make n0 0 in
  let c_lo = Array.make n0 0 and c_hi = Array.make n0 0 in
  (* A resolved state adds at least one entry to each pool: sized for
     one entry per vanishing state, a pool seldom grows. *)
  let nv = n0 - n in
  let d_state = Buf.create nv 0 and d_prob = Buf.create nv 0.0 in
  let c_lab = Buf.create nv 0 and c_val = Buf.create nv 0.0 in
  let states = scratch n and labels = scratch nlabels in
  let max_prio s =
    let m = ref min_int in
    for i = lts.row.(s) to lts.row.(s + 1) - 1 do
      if lts.rate_kind.(i) = 2 && lts.rate_prio.(i) > !m then
        m := lts.rate_prio.(i)
    done;
    !m
  in
  let rec resolve s =
    if Bytes.get_uint8 status s = 1 then
      raise
        (Build_error
           (Printf.sprintf
              "cycle of immediate transitions through state %d (time trap)"
              s));
    if Bytes.get_uint8 status s = 0 then begin
      Bytes.set_uint8 status s 1;
      let lo = lts.row.(s) and hi = lts.row.(s + 1) in
      let prio = max_prio s in
      let top i = lts.rate_kind.(i) = 2 && lts.rate_prio.(i) = prio in
      let total = ref 0.0 in
      for i = lo to hi - 1 do
        if top i then begin
          total := !total +. lts.rate_val.(i);
          if vanishing lts.tgt.(i) then resolve lts.tgt.(i)
        end
      done;
      let total = !total in
      (* Each branch's tangible distribution scaled by its probability,
         duplicate targets summed in branch order. *)
      open_ states;
      for i = lo to hi - 1 do
        if top i then begin
          let p = lts.rate_val.(i) /. total and u = lts.tgt.(i) in
          if vanishing u then
            for k = d_lo.(u) to d_hi.(u) - 1 do
              add states d_state.data.(k) (p *. d_prob.data.(k))
            done
          else add states new_id.(u) (p *. 1.0)
        end
      done;
      sort_prefix states.keys states.nkeys Fun.id;
      d_lo.(s) <- d_state.len;
      for k = 0 to states.nkeys - 1 do
        let v = states.keys.(k) in
        Buf.push d_state v;
        Buf.push d_prob states.sum.(v)
      done;
      d_hi.(s) <- d_state.len;
      (* Each branch fires its own label once, then its target's firings,
         both scaled by the branch probability. *)
      open_ labels;
      for i = lo to hi - 1 do
        if top i then begin
          let p = lts.rate_val.(i) /. total and u = lts.tgt.(i) in
          add labels lts.lab.(i) p;
          if vanishing u then
            for k = c_lo.(u) to c_hi.(u) - 1 do
              add labels c_lab.data.(k) (p *. c_val.data.(k))
            done
        end
      done;
      sort_prefix labels.keys labels.nkeys (Array.get rank);
      c_lo.(s) <- c_lab.len;
      for k = 0 to labels.nkeys - 1 do
        let l = labels.keys.(k) in
        Buf.push c_lab l;
        Buf.push c_val labels.sum.(l)
      done;
      c_hi.(s) <- c_lab.len;
      Bytes.set_uint8 status s 2
    end
  in
  (* Exact sizes of the packed columns, so none is grown or trimmed:
     each timed edge fans out over its target's distribution, and a
     state lists each immediate label reached and each observable label
     enabled once. The vanishing targets of a state's timed edges are
     resolved here, in reverse LTS order, which fixes the time trap a
     model with several reports. *)
  let ntrans = ref 0 and nimm = ref 0 and nenabled = ref 0 in
  for s = 0 to n0 - 1 do
    if not (vanishing s) then begin
      let lo = lts.row.(s) and hi = lts.row.(s + 1) in
      open_ labels;
      for i = lo to hi - 1 do
        if lts.lab.(i) <> Lts.tau then add labels lts.lab.(i) 0.0
      done;
      nenabled := !nenabled + labels.nkeys;
      for i = hi - 1 downto lo do
        if lts.rate_kind.(i) = 1 && vanishing lts.tgt.(i) then
          resolve lts.tgt.(i)
      done;
      open_ labels;
      for i = lo to hi - 1 do
        if lts.rate_kind.(i) = 1 then begin
          let u = lts.tgt.(i) in
          if vanishing u then begin
            ntrans := !ntrans + d_hi.(u) - d_lo.(u);
            for k = c_lo.(u) to c_hi.(u) - 1 do
              add labels c_lab.data.(k) 0.0
            done
          end
          else incr ntrans
        end
      done;
      nimm := !nimm + labels.nkeys
    end
  done;
  let dst = Buf.create !ntrans 0 and lab = Buf.create !ntrans 0 in
  let imm_lab = Buf.create !nimm 0 and enabled_lab = Buf.create !nenabled 0 in
  let row = Array.make (n + 1) 0 in
  let imm_row = Array.make (n + 1) 0 in
  let enabled_row = Array.make (n + 1) 0 in
  (* One transition: LTS edge [i] into tangible state [t]. *)
  let emit i t =
    Buf.push dst t;
    Buf.push lab lts.lab.(i)
  in
  for s = 0 to n0 - 1 do
    if not (vanishing s) then begin
      let id = new_id.(s) and lo = lts.row.(s) and hi = lts.row.(s + 1) in
      (* Observable labels by id, each once. *)
      open_ labels;
      for i = lo to hi - 1 do
        if lts.lab.(i) <> Lts.tau then add labels lts.lab.(i) 0.0
      done;
      sort_prefix labels.keys labels.nkeys Fun.id;
      for k = 0 to labels.nkeys - 1 do
        Buf.push enabled_lab labels.keys.(k)
      done;
      (* Timed edges in reverse LTS order, each fanned out over the
         tangible distribution of its target ([fill] walks them in the
         same order); the immediate labels they fire, by name. *)
      open_ labels;
      for i = hi - 1 downto lo do
        if lts.rate_kind.(i) = 1 then begin
          let u = lts.tgt.(i) in
          if vanishing u then begin
            for k = d_lo.(u) to d_hi.(u) - 1 do
              emit i d_state.data.(k)
            done;
            for k = c_lo.(u) to c_hi.(u) - 1 do
              add labels c_lab.data.(k) 0.0
            done
          end
          else emit i new_id.(u)
        end
      done;
      sort_prefix labels.keys labels.nkeys (Array.get rank);
      for k = 0 to labels.nkeys - 1 do
        Buf.push imm_lab labels.keys.(k)
      done;
      row.(id + 1) <- dst.len;
      imm_row.(id + 1) <- imm_lab.len;
      enabled_row.(id + 1) <- enabled_lab.len
    end
  done;
  let init_state, init_prob =
    let s = lts.init in
    if vanishing s then begin
      resolve s;
      ( Array.sub d_state.data d_lo.(s) (d_hi.(s) - d_lo.(s)),
        Array.sub d_prob.data d_lo.(s) (d_hi.(s) - d_lo.(s)) )
    end
    else ([| new_id.(s) |], [| 1.0 |])
  in
  {
    chain =
      {
        n;
        init_state;
        init_prob;
        row;
        dst = Buf.contents dst;
        rate = [||];
        lab = Buf.contents lab;
        imm_row;
        imm_lab = Buf.contents imm_lab;
        imm_rate = [||];
        enabled_row;
        enabled_lab = Buf.contents enabled_lab;
        exit_rate = [||];
      };
    nlabels;
    new_id;
    d_lo;
    d_hi;
    d_prob = d_prob.data;
    c_lo;
    c_hi;
    c_lab = c_lab.data;
    c_val = c_val.data;
  }

(* The rate columns of [lts]'s chain: the timed edges of each tangible
   state in the plan's order, with the products and sums of the
   single-pass builder this split came from, in its order and from its
   [0.0]. *)
let fill_chain p (lts : Lts.t) =
  let c = p.chain and rv = lts.rate_val in
  let rate = Array.make (Array.length c.dst) 0.0 in
  let exit_rate = Array.make c.n 0.0 in
  let imm_rate = Array.make (Array.length c.imm_lab) 0.0 in
  let cell_of = Array.make p.nlabels 0 and k = ref 0 in
  let emit id r =
    rate.(!k) <- r;
    if c.dst.(!k) <> id then exit_rate.(id) <- exit_rate.(id) +. r;
    incr k
  in
  for s = 0 to lts.num_states - 1 do
    let id = p.new_id.(s) in
    if id >= 0 then begin
      for j = c.imm_row.(id) to c.imm_row.(id + 1) - 1 do
        cell_of.(c.imm_lab.(j)) <- j
      done;
      for i = lts.row.(s + 1) - 1 downto lts.row.(s) do
        if lts.rate_kind.(i) = 1 then begin
          let lambda = rv.(i) and u = lts.tgt.(i) in
          if p.new_id.(u) < 0 then begin
            for d = p.d_lo.(u) to p.d_hi.(u) - 1 do
              emit id (lambda *. p.d_prob.(d))
            done;
            for d = p.c_lo.(u) to p.c_hi.(u) - 1 do
              let j = cell_of.(p.c_lab.(d)) in
              imm_rate.(j) <- imm_rate.(j) +. (lambda *. p.c_val.(d))
            done
          end
          else emit id (lambda *. 1.0)
        end
      done
    end
  done;
  { c with rate; exit_rate; imm_rate }

let fill p lts =
  let c = fill_chain p lts in
  let module I = Obs.Instruments in
  Obs.Metrics.incr I.ctmc_builds;
  Obs.Metrics.add I.ctmc_states c.n;
  Obs.Metrics.add I.ctmc_transitions (Array.length c.dst);
  c

let of_lts lts = fill (plan lts) lts

(* [plan] reads every CSR column and the rates of the edges that are not
   timed (the immediate weights); [fill] reads the timed rates. Rates
   hash and compare by their 64-bit patterns. *)
let float_bits = Int64.bits_of_float

let fold_rates h (lts : Lts.t) ~timed =
  let h = ref h in
  for i = 0 to Array.length lts.rate_val - 1 do
    if lts.rate_kind.(i) = 1 = timed then
      h := Dpma_util.Hash.fold !h (Int64.to_int (float_bits lts.rate_val.(i)))
  done;
  !h

let plan_hash (lts : Lts.t) =
  let module H = Dpma_util.Hash in
  let h = H.fold_ints (H.fold_ints (H.fold_ints lts.init lts.row) lts.lab) lts.tgt in
  let h = H.fold_ints (H.fold_ints h lts.rate_kind) lts.rate_prio in
  H.int (fold_rates h lts ~timed:false)

(* Eta-expanded, so each comparison is a direct call rather than the
   application of a partial closure. *)
let same_plan a b = Lts.equal_fields ~columns:true ~rates:`Untimed a b

let rates_hash lts = Dpma_util.Hash.int (fold_rates 0 lts ~timed:true)

let same_rates a b = Lts.equal_fields ~columns:false ~rates:`Timed a b

let uniformization_rate c =
  1.1 *. Float.max (Array.fold_left Float.max 0.0 c.exit_rate) 1e-9

let enables c s a =
  let rec search lo hi =
    lo < hi
    &&
    let mid = (lo + hi) / 2 in
    let b = c.enabled_lab.(mid) in
    if b = a then true else if b < a then search (mid + 1) hi else search lo mid
  in
  search c.enabled_row.(s) c.enabled_row.(s + 1)

let enables_action c s name =
  match Label.find name with Some a -> enables c s a | None -> false

(* --- Graph analysis ------------------------------------------------- *)

(* Distinct successors over positive rates, self-loops dropped, in
   increasing order: the graph (and the visiting order) of the BSCC
   analysis. *)
let successor_graph c =
  let grow = Array.make (c.n + 1) 0 in
  let gdst = Buf.create (Array.length c.dst) 0 in
  for s = 0 to c.n - 1 do
    let succ = ref [] in
    for k = c.row.(s) to c.row.(s + 1) - 1 do
      if c.rate.(k) > 0.0 && c.dst.(k) <> s then succ := c.dst.(k) :: !succ
    done;
    List.iter (Buf.push gdst) (List.sort_uniq Int.compare !succ);
    grow.(s + 1) <- gdst.len
  done;
  (grow, Buf.contents gdst)

(* Breadth-first closure of [seeds] along the [row]/[dst] edges [live]
   holds, not expanding the states [stop] holds. *)
let closure ~row ~dst ?(stop = fun _ -> false) ?(live = fun _ -> true) n
    seeds =
  let seen = Array.make n false in
  let queue = Array.make n 0 and tail = ref 0 in
  let add s =
    if not seen.(s) then begin
      seen.(s) <- true;
      queue.(!tail) <- s;
      incr tail
    end
  in
  List.iter add seeds;
  let head = ref 0 in
  while !head < !tail do
    let s = queue.(!head) in
    incr head;
    if not (stop s) then
      for e = row.(s) to row.(s + 1) - 1 do
        if live e then add dst.(e)
      done
  done;
  seen

(* States carrying initial probability mass. *)
let initial_support c =
  let l = ref [] in
  for i = Array.length c.init_state - 1 downto 0 do
    if c.init_prob.(i) > 0.0 then l := c.init_state.(i) :: !l
  done;
  !l

let comp_members (comps : Scc.components) ci =
  Array.sub comps.members comps.comp_row.(ci)
    (comps.comp_row.(ci + 1) - comps.comp_row.(ci))

(* --- Steady state --------------------------------------------------- *)

(* Steady-state residual of a local solution: max_j |sum_i pi_i q_ij|
   over the BSCC, recomputed from the transitions so it measures the
   solution itself rather than the solver's own stopping test. *)
let bscc_residual c local states pi =
  let balance = Array.make (Array.length pi) 0.0 in
  Array.iteri
    (fun i s ->
      for e = c.row.(s) to c.row.(s + 1) - 1 do
        let t = c.dst.(e) in
        if t <> s && local.(t) >= 0 then begin
          let j = local.(t) and r = c.rate.(e) in
          balance.(j) <- balance.(j) +. (pi.(i) *. r);
          balance.(i) <- balance.(i) -. (pi.(i) *. r)
        end
      done)
    states;
  Array.fold_left (fun acc b -> Float.max acc (abs_float b)) 0.0 balance

let record_solve ~iterations ~residual =
  let module I = Obs.Instruments in
  Obs.Metrics.add I.ctmc_solve_iterations iterations;
  let cur = Obs.Metrics.value I.ctmc_solve_residual in
  Obs.Metrics.set I.ctmc_solve_residual
    (if Float.is_nan cur then residual else Float.max cur residual)

(* Solve pi Q = 0, sum pi = 1 densely: Q^T with its last row overwritten
   by the normalization equation. *)
let dense_stationary c local states =
  let k = Array.length states in
  let m = Array.make_matrix k k 0.0 in
  Array.iteri
    (fun i s ->
      for e = c.row.(s) to c.row.(s + 1) - 1 do
        let t = c.dst.(e) in
        if t <> s then begin
          let j = local.(t) and r = c.rate.(e) in
          if j < 0 then
            raise
              (Build_error
                 "internal error: BSCC state leaks outside its component");
          m.(j).(i) <- m.(j).(i) +. r;
          m.(i).(i) <- m.(i).(i) -. r
        end
      done)
    states;
  for j = 0 to k - 1 do
    m.(k - 1).(j) <- 1.0
  done;
  let rhs = Array.make k 0.0 in
  rhs.(k - 1) <- 1.0;
  Linalg.solve m rhs

(* Gauss–Seidel on the BSCC's local generator (diagonal = minus the exit
   rate), which the kernel sweeps column-wise through its transpose. *)
let iterative_stationary c local states =
  let k = Array.length states in
  let qrow = Array.make (k + 1) 0 in
  let qcol = Buf.create (4 * k) 0 and qval = Buf.create (4 * k) 0.0 in
  Array.iteri
    (fun i s ->
      for e = c.row.(s) to c.row.(s + 1) - 1 do
        let t = c.dst.(e) in
        if t <> s && local.(t) >= 0 then begin
          Buf.push qcol local.(t);
          Buf.push qval c.rate.(e)
        end
      done;
      Buf.push qcol i;
      Buf.push qval (-.c.exit_rate.(s));
      qrow.(i + 1) <- qcol.len)
    states;
  let q =
    Sparse.of_csr ~row:qrow ~col:(Buf.contents qcol) ~value:(Buf.contents qval)
  in
  Sparse.gauss_seidel_stationary q

(* Stationary distribution inside one BSCC, [states] in Tarjan discovery
   order; [local] maps global to local indices (-1 outside) and is left
   as found. *)
let solve_bscc c local states =
  let k = Array.length states in
  if k = 1 then begin
    record_solve ~iterations:1 ~residual:0.0;
    [| 1.0 |]
  end
  else begin
    Array.iteri (fun i s -> local.(s) <- i) states;
    let pi, iterations =
      if k <= dense_threshold then
        (* A direct dense solve counts one "iteration" per pivot. *)
        (dense_stationary c local states, k)
      else
        let pi, conv = iterative_stationary c local states in
        (pi, conv.Sparse.iterations)
    in
    record_solve ~iterations ~residual:(bscc_residual c local states pi);
    Array.iter (fun s -> local.(s) <- -1) states;
    pi
  end

(* Probability of eventual absorption into each reachable BSCC from the
   initial distribution. h(s, b) = sum_u p(s, u) h(u, b) on the embedded
   jump chain, solved component by component in Tarjan's emission order
   (every transition leads to an earlier component), so each transient
   component only reads finished values outside itself: a singleton is
   one direct evaluation, a nontrivial SCC of at most [dense_threshold]
   states one dense solve of (I - P_CC) h_C = P_C,out h_out with a
   right-hand side per BSCC, a larger one iterates locally. *)
let absorption_weights c (comps : Scc.components) reach bottoms =
  let nb = Array.length bottoms in
  let bottom_of = Array.make (Scc.count comps) (-1) in
  Array.iteri (fun b ci -> bottom_of.(ci) <- b) bottoms;
  (* Rows of h for the reachable transient states. *)
  let slot = Array.make c.n (-1) and nslots = ref 0 in
  for s = 0 to c.n - 1 do
    if reach.(s) && bottom_of.(comps.comp_of.(s)) < 0 then begin
      slot.(s) <- !nslots;
      incr nslots
    end
  done;
  let h = Array.make (!nslots * nb) 0.0 in
  let value t b =
    if slot.(t) >= 0 then h.((slot.(t) * nb) + b)
    else if bottom_of.(comps.comp_of.(t)) = b then 1.0
    else 0.0
  in
  (* Gauss–Seidel update of state s: writes h(s, .) and returns the
     largest change. *)
  let update s =
    let exit = c.exit_rate.(s) and delta = ref 0.0 in
    for b = 0 to nb - 1 do
      let v = ref 0.0 in
      for e = c.row.(s) to c.row.(s + 1) - 1 do
        let t = c.dst.(e) in
        if t <> s && c.rate.(e) > 0.0 then
          v := !v +. (c.rate.(e) /. exit *. value t b)
      done;
      let i = (slot.(s) * nb) + b in
      delta := Float.max !delta (abs_float (!v -. h.(i)));
      h.(i) <- !v
    done;
    !delta
  in
  (* Rows of h for the members of one SCC at once, by Gaussian
     elimination without subtractions (Grassmann–Taksar–Heyman): with
     [p.(i).(j)] the jump probability from member i to member j and
     [out.(i)] the probability of leaving the SCC from i, each pivot's
     diagonal is recomputed as its escape mass plus its remaining
     off-diagonal mass, so absorption probabilities many orders of
     magnitude below 1 keep their relative accuracy. [local] maps global
     to local indices (-1 outside) and is left as found. *)
  let local = Array.make c.n (-1) in
  let solve_dense states =
    let k = Array.length states in
    Array.iteri (fun i s -> local.(s) <- i) states;
    let p = Array.make_matrix k k 0.0 and out = Array.make k 0.0 in
    let rhs = Array.make_matrix k nb 0.0 in
    Array.iteri
      (fun i s ->
        let exit = c.exit_rate.(s) in
        for e = c.row.(s) to c.row.(s + 1) - 1 do
          let t = c.dst.(e) in
          if t <> s && c.rate.(e) > 0.0 then begin
            let q = c.rate.(e) /. exit in
            let j = local.(t) in
            if j >= 0 then p.(i).(j) <- p.(i).(j) +. q
            else begin
              out.(i) <- out.(i) +. q;
              for b = 0 to nb - 1 do
                rhs.(i).(b) <- rhs.(i).(b) +. (q *. value t b)
              done
            end
          end
        done)
      states;
    let diag = Array.make k 0.0 in
    for v = 0 to k - 1 do
      let pv = p.(v) in
      let d = ref out.(v) in
      for j = v + 1 to k - 1 do
        d := !d +. pv.(j)
      done;
      diag.(v) <- !d;
      for i = v + 1 to k - 1 do
        let pi = p.(i) in
        let f = pi.(v) /. !d in
        if f > 0.0 then begin
          for j = v + 1 to k - 1 do
            if j <> i then pi.(j) <- pi.(j) +. (f *. pv.(j))
          done;
          out.(i) <- out.(i) +. (f *. out.(v));
          for b = 0 to nb - 1 do
            rhs.(i).(b) <- rhs.(i).(b) +. (f *. rhs.(v).(b))
          done
        end
      done
    done;
    for v = k - 1 downto 0 do
      let row = slot.(states.(v)) * nb in
      for b = 0 to nb - 1 do
        let x = ref rhs.(v).(b) in
        for j = v + 1 to k - 1 do
          x := !x +. (p.(v).(j) *. h.((slot.(states.(j)) * nb) + b))
        done;
        h.(row + b) <- !x /. diag.(v)
      done;
      local.(states.(v)) <- -1
    done
  in
  let sweeps = ref 0 in
  for ci = 0 to Scc.count comps - 1 do
    let first = comps.members.(comps.comp_row.(ci)) in
    if slot.(first) >= 0 then
      let size = comps.comp_row.(ci + 1) - comps.comp_row.(ci) in
      if size = 1 then ignore (update first : float)
      else if size <= dense_threshold then solve_dense (comp_members comps ci)
      else begin
        let states = comp_members comps ci in
        Array.sort Int.compare states;
        let conv =
          Sparse.fixed_point ~tol:1e-14 ~phase:"ctmc.solve" (fun () ->
              let delta = ref 0.0 in
              for i = 0 to Array.length states - 1 do
                delta := Float.max !delta (update states.(i))
              done;
              !delta)
        in
        sweeps := !sweeps + conv.Sparse.iterations
      end
  done;
  Obs.Metrics.add Obs.Instruments.ctmc_absorption_sweeps !sweeps;
  let weights = Array.make nb 0.0 in
  Array.iteri
    (fun i s ->
      let p = c.init_prob.(i) in
      if p > 0.0 then
        for b = 0 to nb - 1 do
          weights.(b) <- weights.(b) +. (p *. value s b)
        done)
    c.init_state;
  (* A finite chain is absorbed with probability 1, so the weights sum to
     1; sweeps stopped by a change test leave a deficit of mass not yet
     absorbed (up to change / (1 - contraction)), which is shared out in
     proportion. *)
  let total = Array.fold_left ( +. ) 0.0 weights in
  Array.map (fun w -> w /. total) weights

(* The successor graph's components, the states reachable from the
   initial distribution and the reachable bottom components. *)
let bottom_components c =
  let row, dst = successor_graph c in
  let comps = Scc.tarjan_csr ~row ~dst c.n in
  let reach = closure ~row ~dst c.n (initial_support c) in
  let bottoms =
    List.init (Scc.count comps) Fun.id
    |> List.filter (fun ci ->
           reach.(comps.members.(comps.comp_row.(ci)))
           && Scc.is_bottom ~row ~dst comps ci)
    |> Array.of_list
  in
  (comps, reach, bottoms)

(* [bottom_components] of the chains of one plan whose positive rates
   sit where [positive] says. *)
type graph = {
  g_dst : int array;  (* the plan's [dst], shared by every chain it fills *)
  positive : Bytes.t;  (* '\001' where a transition's rate is positive *)
  comps : Scc.components;
  reach : bool array;
  bottoms : int array;
}

let graph p lts =
  let c = fill_chain p lts in
  let comps, reach, bottoms = bottom_components c in
  let positive =
    Bytes.init (Array.length c.rate) (fun k ->
        if c.rate.(k) > 0.0 then '\001' else '\000')
  in
  { g_dst = c.dst; positive; comps; reach; bottoms }

let fits g c =
  g.g_dst == c.dst
  &&
  let rec go k =
    k < 0
    || (Bytes.get g.positive k = '\001') = (c.rate.(k) > 0.0) && go (k - 1)
  in
  go (Array.length c.rate - 1)

let steady_state ?graph c =
  Obs.Metrics.incr Obs.Instruments.ctmc_solves;
  let comps, reach, bottoms =
    match graph with
    | Some g when fits g c -> (g.comps, g.reach, g.bottoms)
    | _ -> bottom_components c
  in
  let weights =
    match bottoms with
    | [| _ |] -> [| 1.0 |]
    | _ -> absorption_weights c comps reach bottoms
  in
  let pi = Array.make c.n 0.0 in
  let local = Array.make c.n (-1) in
  Array.iteri
    (fun b ci ->
      if weights.(b) > 0.0 then begin
        let states = comp_members comps ci in
        let p = solve_bscc c local states in
        Array.iteri
          (fun i s -> pi.(s) <- pi.(s) +. (weights.(b) *. p.(i)))
          states
      end)
    bottoms;
  pi

(* --- Transient analysis --------------------------------------------- *)

let transient c time =
  assert (time >= 0.0);
  let lambda = uniformization_rate c in
  (* Uniformized DTMC: off-diagonal rates over lambda, then the
     diagonal. *)
  let prow = Array.make (c.n + 1) 0 in
  let pcol = Buf.create (Array.length c.dst + c.n) 0 in
  let pval = Buf.create (Array.length c.dst + c.n) 0.0 in
  for s = 0 to c.n - 1 do
    for e = c.row.(s) to c.row.(s + 1) - 1 do
      if c.dst.(e) <> s then begin
        Buf.push pcol c.dst.(e);
        Buf.push pval (c.rate.(e) /. lambda)
      end
    done;
    Buf.push pcol s;
    Buf.push pval (1.0 -. (c.exit_rate.(s) /. lambda));
    prow.(s + 1) <- pcol.len
  done;
  let p =
    Sparse.of_csr ~row:prow ~col:(Buf.contents pcol) ~value:(Buf.contents pval)
  in
  let x = Array.make c.n 0.0 in
  Array.iteri (fun i s -> x.(s) <- x.(s) +. c.init_prob.(i)) c.init_state;
  let lt = lambda *. time in
  (* Adaptive truncation of the Poisson series: stop when the accumulated
     mass is within 1e-12 of 1. *)
  let result = Array.make c.n 0.0 in
  let poisson = ref (exp (-.lt)) in
  let accumulated = ref 0.0 in
  let vec = ref x in
  let k = ref 0 in
  (if !poisson = 0.0 then begin
     (* lt too large for direct series start; fall back to stepping the
        series in log space via scaling. *)
     let log_p = ref (-.lt) in
     while !accumulated < 1.0 -. 1e-12 && !k < 100 + int_of_float (10.0 *. lt) do
       let pk = exp !log_p in
       accumulated := !accumulated +. pk;
       Array.iteri (fun i v -> result.(i) <- result.(i) +. (pk *. v)) !vec;
       incr k;
       log_p := !log_p +. log (lt /. float_of_int !k);
       vec := Sparse.vec_mat !vec p
     done
   end
   else
     while !accumulated < 1.0 -. 1e-12 && !k < 100 + int_of_float (10.0 *. lt) do
       accumulated := !accumulated +. !poisson;
       Array.iteri (fun i v -> result.(i) <- result.(i) +. (!poisson *. v)) !vec;
       incr k;
       poisson := !poisson *. lt /. float_of_int !k;
       vec := Sparse.vec_mat !vec p
     done);
  result

(* --- Rewards -------------------------------------------------------- *)

let state_reward c pi r =
  let acc = ref 0.0 in
  for s = 0 to c.n - 1 do
    if pi.(s) > 0.0 then acc := !acc +. (pi.(s) *. r s)
  done;
  !acc

let throughput c pi action =
  match Label.find action with
  | None -> 0.0
  | Some a ->
      let acc = ref 0.0 in
      for s = 0 to c.n - 1 do
        if pi.(s) > 0.0 then begin
          for k = c.row.(s) to c.row.(s + 1) - 1 do
            if c.lab.(k) = a then acc := !acc +. (pi.(s) *. c.rate.(k))
          done;
          (* Immediate firings reached through this state's timed
             transitions. *)
          for k = c.imm_row.(s) to c.imm_row.(s + 1) - 1 do
            if c.imm_lab.(k) = a then acc := !acc +. (pi.(s) *. c.imm_rate.(k))
          done
        end
      done;
      !acc

let probability_enabled c pi action =
  match Label.find action with
  | None -> 0.0
  | Some a -> state_reward c pi (fun s -> if enables c s a then 1.0 else 0.0)

let transient_reward c time r =
  let p = transient c time in
  let acc = ref 0.0 in
  for s = 0 to c.n - 1 do
    if p.(s) > 0.0 then acc := !acc +. (p.(s) *. r s)
  done;
  !acc

(* --- First passage -------------------------------------------------- *)

(* States that can reach a target state: backward breadth-first search
   over the reversed positive-rate transitions. *)
let can_reach c is_target =
  let rev =
    Sparse.transpose (Sparse.of_csr ~row:c.row ~col:c.dst ~value:c.rate)
  in
  closure ~row:rev.row ~dst:rev.col
    ~live:(fun e -> rev.value.(e) > 0.0)
    c.n
    (List.filter (Array.get is_target) (List.init c.n Fun.id))

(* Gauss–Seidel on g(s) = r(s)/E(s) + sum_u p(s,u) g(u) over the
   non-[stop] states of [active] (g = 0 on stop states); [r = None]
   keeps the reachability form p(s) = sum_u p(s,u) p(u) with p = 1 on
   stop states. *)
let passage_sweeps c ~active ~stop ~tol ~init r =
  let g = Array.init c.n init in
  let skip_stop = Option.is_some r in
  let (_ : Sparse.convergence) =
    Sparse.fixed_point ~tol ~phase:"ctmc.passage" (fun () ->
        let delta = ref 0.0 in
        for s = 0 to c.n - 1 do
          if active.(s) && not stop.(s) then begin
            let exit = c.exit_rate.(s) in
            if exit > 0.0 then begin
              let v =
                ref (match r with Some r -> r.(s) /. exit | None -> 0.0)
              in
              for k = c.row.(s) to c.row.(s + 1) - 1 do
                let u = c.dst.(k) in
                if u <> s && not (skip_stop && stop.(u)) then
                  v := !v +. (c.rate.(k) /. exit *. g.(u))
              done;
              delta := Float.max !delta (abs_float (!v -. g.(s)));
              g.(s) <- !v
            end
          end
        done;
        !delta)
  in
  g

let from_initial c f =
  let acc = ref 0.0 in
  Array.iteri (fun i s -> acc := !acc +. (c.init_prob.(i) *. f s)) c.init_state;
  !acc

let reachability_probability c ~target =
  let is_target = Array.init c.n target in
  let reaches = can_reach c is_target in
  (* p(s) = 1 on target; on others, p = sum of jump probabilities into
     successors weighted by their p; absorbing non-target states give 0.
     Fixed-point iteration (substochastic, converges). *)
  let p =
    passage_sweeps c ~active:reaches ~stop:is_target ~tol:1e-14
      ~init:(fun s -> if is_target.(s) then 1.0 else 0.0)
      None
  in
  from_initial c (Array.get p)

(* Expected reward accumulated until the first [until] state, shared by
   [mean_time_to] (reward 1) and [expected_accumulated_reward]. *)
let accumulated_until c ~reward ~until =
  let stop = Array.init c.n until in
  let inside = ref true in
  Array.iteri
    (fun i s -> if c.init_prob.(i) > 0.0 && not stop.(s) then inside := false)
    c.init_state;
  if !inside then 0.0
  else begin
    let reaches = can_reach c stop in
    (* Any reachable state that cannot reach the target makes the expected
       accumulation infinite whenever it can be entered. *)
    let row, dst = successor_graph c in
    let reachable =
      closure ~row ~dst ~stop:(Array.get stop) c.n (initial_support c)
    in
    let dead_end = ref false in
    for s = 0 to c.n - 1 do
      if reachable.(s) && not reaches.(s) then dead_end := true
    done;
    if !dead_end then infinity
    else begin
      let r =
        Array.init c.n (fun s ->
            if reachable.(s) && not stop.(s) then reward s else 0.0)
      in
      let g =
        passage_sweeps c ~active:reachable ~stop ~tol:1e-13
          ~init:(fun _ -> 0.0) (Some r)
      in
      from_initial c (fun s -> if stop.(s) then 0.0 else g.(s))
    end
  end

let mean_time_to c ~target =
  accumulated_until c ~reward:(fun _ -> 1.0) ~until:target

let expected_accumulated_reward c ~reward ~until =
  accumulated_until c ~reward ~until
