(* Test-only reference solver: the list-based steady-state engine the
   packed CTMC core replaced, kept as a differential oracle. Transitions
   are per-state (target, rate) lists, BSCCs come from a list-frame
   Tarjan, the large-BSCC Gauss–Seidel sweeps Hashtbl columns, and
   absorption probabilities come from global fixed-point sweeps over every
   transient state, reachable or not. test_ctmc.ml compares the packed
   [Ctmc.steady_state] against it on generated chains.

   [of_lts] below is the list-based vanishing-state elimination the
   array-based [Ctmc.of_lts] replaced: per-state [Hashtbl]s and
   [(label, count)] lists sorted by label name. *)

module Ctmc = Dpma_ctmc.Ctmc
module Lts = Dpma_lts.Lts
module Label = Dpma_pa.Label
module Linalg = Dpma_util.Linalg

(* --- Vanishing-state elimination, list version ----------------------- *)

(* Every field of a [Ctmc.t], as plain arrays. *)
type built = {
  b_n : int;
  b_init_state : int array;
  b_init_prob : float array;
  b_row : int array;
  b_dst : int array;
  b_rate : float array;
  b_lab : int array;
  b_imm_row : int array;
  b_imm_lab : int array;
  b_imm_rate : float array;
  b_enabled_row : int array;
  b_enabled_lab : int array;
  b_exit_rate : float array;
}

let built_of_ctmc (c : Ctmc.t) =
  { b_n = c.Ctmc.n; b_init_state = c.Ctmc.init_state;
    b_init_prob = c.Ctmc.init_prob; b_row = c.Ctmc.row; b_dst = c.Ctmc.dst;
    b_rate = c.Ctmc.rate; b_lab = c.Ctmc.lab; b_imm_row = c.Ctmc.imm_row;
    b_imm_lab = c.Ctmc.imm_lab; b_imm_rate = c.Ctmc.imm_rate;
    b_enabled_row = c.Ctmc.enabled_row; b_enabled_lab = c.Ctmc.enabled_lab;
    b_exit_rate = c.Ctmc.exit_rate }

(* Immediate alternatives of a vanishing state: maximal priority wins, then
   weights give a probabilistic choice. *)
let immediate_branches (lts : Lts.t) s =
  let imms = ref [] in
  for i = lts.row.(s + 1) - 1 downto lts.row.(s) do
    if lts.rate_kind.(i) = 2 then
      imms :=
        (lts.rate_prio.(i), lts.rate_val.(i), lts.lab.(i), lts.tgt.(i))
        :: !imms
  done;
  let imms = !imms in
  let max_prio = List.fold_left (fun m (p, _, _, _) -> max m p) min_int imms in
  let top = List.filter (fun (p, _, _, _) -> p = max_prio) imms in
  let total = List.fold_left (fun acc (_, w, _, _) -> acc +. w) 0.0 top in
  List.map (fun (_, w, a, u) -> (u, w /. total, a)) top

(* Merge association lists of weighted label counts, summing in list
   order; the result is sorted by label name. *)
let merge_counts lists =
  let table = Hashtbl.create 8 in
  List.iter
    (List.iter (fun (a, c) ->
         let cur = Option.value ~default:0.0 (Hashtbl.find_opt table a) in
         Hashtbl.replace table a (cur +. c)))
    lists;
  Hashtbl.fold (fun a c acc -> (a, c) :: acc) table []
  |> List.sort (fun (a, _) (b, _) -> Label.compare_by_name a b)

let of_lts (lts : Lts.t) =
  let error fmt = Printf.ksprintf (fun m -> raise (Ctmc.Build_error m)) fmt in
  let n0 = lts.num_states in
  let vanishing = Array.make n0 false in
  for s = 0 to n0 - 1 do
    for i = lts.row.(s) to lts.row.(s + 1) - 1 do
      match lts.rate_kind.(i) with
      | 0 ->
          error
            "state %d has an unrated transition on %s (functional model fed \
             to the CTMC builder?)"
            s
            (Lts.label_name lts.lab.(i))
      | 3 ->
          error
            "unsynchronized passive action %s in state %d: every passive \
             action must be attached to an active partner"
            (Lts.label_name lts.lab.(i)) s
      | 2 -> vanishing.(s) <- true
      | _ -> ()
    done
  done;
  let resolved = Hashtbl.create 64 in
  let in_progress = Hashtbl.create 16 in
  let rec resolve s =
    if not vanishing.(s) then ([ (s, 1.0) ], [])
    else
      match Hashtbl.find_opt resolved s with
      | Some d -> d
      | None ->
          if Hashtbl.mem in_progress s then
            error "cycle of immediate transitions through state %d (time trap)"
              s;
          Hashtbl.add in_progress s ();
          let parts =
            List.map
              (fun (u, p, a) ->
                let dist_u, counts_u = resolve u in
                ( List.map (fun (v, q) -> (v, p *. q)) dist_u,
                  (a, p) :: List.map (fun (b, c) -> (b, p *. c)) counts_u ))
              (immediate_branches lts s)
          in
          let merged = Hashtbl.create 8 in
          List.iter
            (fun (v, p) ->
              let cur = Option.value ~default:0.0 (Hashtbl.find_opt merged v) in
              Hashtbl.replace merged v (cur +. p))
            (List.concat_map fst parts);
          let dist =
            Hashtbl.fold (fun v p acc -> (v, p) :: acc) merged []
            |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
          in
          let counts = merge_counts (List.map snd parts) in
          Hashtbl.remove in_progress s;
          Hashtbl.add resolved s (dist, counts);
          (dist, counts)
  in
  let new_id = Array.make n0 (-1) in
  let count = ref 0 in
  for s = 0 to n0 - 1 do
    if not vanishing.(s) then begin
      new_id.(s) <- !count;
      incr count
    end
  done;
  let n = !count in
  if n = 0 then error "no tangible state (all states vanishing)";
  let dst = ref [] and rate = ref [] and lab = ref [] in
  let imm_lab = ref [] and imm_rate = ref [] and enabled_lab = ref [] in
  let row = Array.make (n + 1) 0 in
  let imm_row = Array.make (n + 1) 0 in
  let enabled_row = Array.make (n + 1) 0 in
  let exit_rate = Array.make n 0.0 in
  let ndst = ref 0 and nimm = ref 0 and nenabled = ref 0 in
  for s = 0 to n0 - 1 do
    if not vanishing.(s) then begin
      let id = new_id.(s) in
      let names = ref [] in
      for i = lts.row.(s) to lts.row.(s + 1) - 1 do
        if lts.lab.(i) <> Lts.tau then names := lts.lab.(i) :: !names
      done;
      List.iter
        (fun a ->
          enabled_lab := a :: !enabled_lab;
          incr nenabled)
        (List.sort_uniq Int.compare !names);
      let imm_parts = ref [] in
      for i = lts.row.(s + 1) - 1 downto lts.row.(s) do
        if lts.rate_kind.(i) = 1 then begin
          let lambda = lts.rate_val.(i) in
          let dist, counts = resolve lts.tgt.(i) in
          List.iter
            (fun (v, p) ->
              let t = new_id.(v) and r = lambda *. p in
              dst := t :: !dst;
              rate := r :: !rate;
              lab := lts.lab.(i) :: !lab;
              incr ndst;
              if t <> id then exit_rate.(id) <- exit_rate.(id) +. r)
            dist;
          if counts <> [] then
            imm_parts :=
              List.map (fun (b, c) -> (b, lambda *. c)) counts :: !imm_parts
        end
      done;
      if !imm_parts <> [] then
        List.iter
          (fun (b, r) ->
            imm_lab := b :: !imm_lab;
            imm_rate := r :: !imm_rate;
            incr nimm)
          (merge_counts (List.rev !imm_parts));
      row.(id + 1) <- !ndst;
      imm_row.(id + 1) <- !nimm;
      enabled_row.(id + 1) <- !nenabled
    end
  done;
  let initial = fst (resolve lts.init) in
  let arr l = Array.of_list (List.rev !l) in
  { b_n = n;
    b_init_state = Array.of_list (List.map (fun (v, _) -> new_id.(v)) initial);
    b_init_prob = Array.of_list (List.map snd initial);
    b_row = row; b_dst = arr dst; b_rate = arr rate; b_lab = arr lab;
    b_imm_row = imm_row; b_imm_lab = arr imm_lab; b_imm_rate = arr imm_rate;
    b_enabled_row = enabled_row; b_enabled_lab = arr enabled_lab;
    b_exit_rate = exit_rate }

type chain = {
  n : int;
  initial : (int * float) list;
  transitions : (int * float) list array;
}

(* The list view of a packed chain: the CSR order of each state's row is
   the list order the old engine stored. *)
let of_ctmc (c : Ctmc.t) =
  {
    n = c.Ctmc.n;
    initial =
      List.init (Array.length c.Ctmc.init_state) (fun i ->
          (c.Ctmc.init_state.(i), c.Ctmc.init_prob.(i)));
    transitions =
      Array.init c.Ctmc.n (fun s ->
          List.init (c.Ctmc.row.(s + 1) - c.Ctmc.row.(s)) (fun k ->
              let e = c.Ctmc.row.(s) + k in
              (c.Ctmc.dst.(e), c.Ctmc.rate.(e))));
  }

(* --- Tarjan with an explicit list of (vertex, remaining) frames ------- *)

let tarjan ~succ n =
  let index = Array.make n (-1) in
  let lowlink = Array.make n 0 in
  let on_stack = Array.make n false in
  let stack = ref [] in
  let next_index = ref 0 in
  let components = ref [] in
  let visit root =
    let work = ref [ (root, succ root) ] in
    index.(root) <- !next_index;
    lowlink.(root) <- !next_index;
    incr next_index;
    stack := root :: !stack;
    on_stack.(root) <- true;
    while !work <> [] do
      match !work with
      | [] -> ()
      | (v, remaining) :: rest -> (
          match remaining with
          | w :: ws ->
              work := (v, ws) :: rest;
              if index.(w) = -1 then begin
                index.(w) <- !next_index;
                lowlink.(w) <- !next_index;
                incr next_index;
                stack := w :: !stack;
                on_stack.(w) <- true;
                work := (w, succ w) :: !work
              end
              else if on_stack.(w) then
                lowlink.(v) <- min lowlink.(v) index.(w)
          | [] ->
              if lowlink.(v) = index.(v) then begin
                let rec pop acc =
                  match !stack with
                  | [] -> acc
                  | w :: tl ->
                      stack := tl;
                      on_stack.(w) <- false;
                      if w = v then w :: acc else pop (w :: acc)
                in
                components := pop [] :: !components
              end;
              work := rest;
              (match rest with
              | (parent, _) :: _ ->
                  lowlink.(parent) <- min lowlink.(parent) lowlink.(v)
              | [] -> ()))
    done
  in
  for v = 0 to n - 1 do
    if index.(v) = -1 then visit v
  done;
  List.rev !components

let bottom_components ~succ n =
  let comps = tarjan ~succ n in
  let idx = Array.make n (-1) in
  List.iteri (fun ci vs -> List.iter (fun v -> idx.(v) <- ci) vs) comps;
  let escapes = Array.make (List.length comps) false in
  for v = 0 to n - 1 do
    List.iter (fun w -> if idx.(w) <> idx.(v) then escapes.(idx.(v)) <- true) (succ v)
  done;
  List.filteri (fun ci _ -> not escapes.(ci)) comps

(* --- The list engine -------------------------------------------------- *)

let total_exit_rate c s =
  List.fold_left
    (fun acc (t, r) -> if t = s then acc else acc +. r)
    0.0 c.transitions.(s)

let succ_fun c s =
  c.transitions.(s)
  |> List.filter_map (fun (t, r) -> if r > 0.0 && t <> s then Some t else None)
  |> List.sort_uniq Int.compare

let bsccs c = bottom_components ~succ:(succ_fun c) c.n

(* Gauss–Seidel over Hashtbl columns of the generator given as Hashtbl
   rows, to an L1 change below 1e-12 or 100_000 sweeps. *)
let gauss_seidel_stationary k (rows : (int, float) Hashtbl.t array) =
  let cols = Array.init k (fun _ -> Hashtbl.create 4) in
  let diag = Array.make k 0.0 in
  for i = 0 to k - 1 do
    Hashtbl.iter
      (fun j v -> if i = j then diag.(i) <- v else Hashtbl.replace cols.(j) i v)
      rows.(i)
  done;
  let pi = Array.make k (1.0 /. float_of_int k) in
  let iter = ref 0 and continue_ = ref true in
  while !continue_ && !iter < 100_000 do
    let delta = ref 0.0 in
    for j = 0 to k - 1 do
      if diag.(j) < 0.0 then begin
        let s = ref 0.0 in
        Hashtbl.iter (fun i v -> s := !s +. (pi.(i) *. v)) cols.(j);
        let nv = !s /. -.diag.(j) in
        delta := !delta +. abs_float (nv -. pi.(j));
        pi.(j) <- nv
      end
    done;
    let total = Array.fold_left ( +. ) 0.0 pi in
    if total > 0.0 then Array.iteri (fun i v -> pi.(i) <- v /. total) pi;
    if !delta < 1e-12 then continue_ := false;
    incr iter
  done;
  pi

let solve_bscc c states =
  let k = List.length states in
  let local_id = Hashtbl.create k in
  List.iteri (fun i s -> Hashtbl.add local_id s i) states;
  let states_arr = Array.of_list states in
  if k = 1 then [ (states_arr.(0), 1.0) ]
  else if k <= Ctmc.dense_threshold then begin
    let m = Array.make_matrix k k 0.0 in
    Array.iteri
      (fun i s ->
        List.iter
          (fun (t, r) ->
            if t <> s then begin
              let j = Hashtbl.find local_id t in
              m.(j).(i) <- m.(j).(i) +. r;
              m.(i).(i) <- m.(i).(i) -. r
            end)
          c.transitions.(s))
      states_arr;
    for j = 0 to k - 1 do
      m.(k - 1).(j) <- 1.0
    done;
    let rhs = Array.make k 0.0 in
    rhs.(k - 1) <- 1.0;
    let pi = Linalg.solve m rhs in
    List.mapi (fun i s -> (s, pi.(i))) states
  end
  else begin
    let rows = Array.init k (fun _ -> Hashtbl.create 4) in
    let add i j v =
      let cur = Option.value ~default:0.0 (Hashtbl.find_opt rows.(i) j) in
      Hashtbl.replace rows.(i) j (cur +. v)
    in
    Array.iteri
      (fun i s ->
        List.iter
          (fun (t, r) ->
            if t <> s then
              match Hashtbl.find_opt local_id t with
              | Some j ->
                  add i j r;
                  add i i (-.r)
              | None -> ())
          c.transitions.(s))
      states_arr;
    let pi = gauss_seidel_stationary k rows in
    List.mapi (fun i s -> (s, pi.(i))) states
  end

let absorption_weights c bscc_list =
  let bscc_of = Array.make c.n (-1) in
  List.iteri (fun bi states -> List.iter (fun s -> bscc_of.(s) <- bi) states) bscc_list;
  let nb = List.length bscc_list in
  let h = Array.make_matrix c.n nb 0.0 in
  for s = 0 to c.n - 1 do
    if bscc_of.(s) >= 0 then h.(s).(bscc_of.(s)) <- 1.0
  done;
  let continue_ = ref true and sweeps = ref 0 in
  while !continue_ && !sweeps < 1_000_000 do
    let delta = ref 0.0 in
    for s = 0 to c.n - 1 do
      if bscc_of.(s) < 0 then begin
        let exit = total_exit_rate c s in
        if exit > 0.0 then
          for b = 0 to nb - 1 do
            let v = ref 0.0 in
            List.iter
              (fun (t, r) -> if t <> s then v := !v +. (r /. exit *. h.(t).(b)))
              c.transitions.(s);
            delta := Float.max !delta (abs_float (!v -. h.(s).(b)));
            h.(s).(b) <- !v
          done
      end
    done;
    if !delta < 1e-14 then continue_ := false;
    incr sweeps
  done;
  let weights = Array.make nb 0.0 in
  List.iter
    (fun (s, p) ->
      for b = 0 to nb - 1 do
        weights.(b) <- weights.(b) +. (p *. h.(s).(b))
      done)
    c.initial;
  weights

let steady_state c =
  let bscc_list = bsccs c in
  let weights =
    match bscc_list with
    | [ _ ] -> [| 1.0 |]
    | _ -> absorption_weights c bscc_list
  in
  let pi = Array.make c.n 0.0 in
  List.iteri
    (fun bi states ->
      if weights.(bi) > 0.0 then
        List.iter
          (fun (s, p) -> pi.(s) <- pi.(s) +. (weights.(bi) *. p))
          (solve_bscc c states))
    bscc_list;
  pi
