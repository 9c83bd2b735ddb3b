(* Test-only reference solver: the list-based steady-state engine the
   packed CTMC core replaced, kept as a differential oracle. Transitions
   are per-state (target, rate) lists, BSCCs come from a list-frame
   Tarjan, the large-BSCC Gauss–Seidel sweeps Hashtbl columns, and
   absorption probabilities come from global fixed-point sweeps over every
   transient state, reachable or not. test_ctmc.ml compares the packed
   [Ctmc.steady_state] against it on generated chains. *)

module Ctmc = Dpma_ctmc.Ctmc
module Linalg = Dpma_util.Linalg

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
