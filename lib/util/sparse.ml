type t = { n : int; row : int array; col : int array; value : float array }

let of_csr ~row ~col ~value =
  let n = Array.length row - 1 in
  if n < 0 || row.(0) <> 0 || row.(n) <> Array.length col
     || Array.length value <> Array.length col
  then invalid_arg "Sparse.of_csr: inconsistent CSR arrays";
  { n; row; col; value }

let get m i j =
  let acc = ref 0.0 in
  for k = m.row.(i) to m.row.(i + 1) - 1 do
    if m.col.(k) = j then acc := !acc +. m.value.(k)
  done;
  !acc

let nnz m = Array.length m.col

let vec_mat x m =
  let y = Array.make m.n 0.0 in
  for i = 0 to m.n - 1 do
    let xi = x.(i) in
    if xi <> 0.0 then
      for k = m.row.(i) to m.row.(i + 1) - 1 do
        y.(m.col.(k)) <- y.(m.col.(k)) +. (xi *. m.value.(k))
      done
  done;
  y

(* Stable counting-sort transpose: column [j] of [m] becomes row [j], its
   entries in [m]'s row order (and stored order within a row). *)
let transpose m =
  let n = m.n in
  let trow = Array.make (n + 1) 0 in
  Array.iter (fun j -> trow.(j + 1) <- trow.(j + 1) + 1) m.col;
  for j = 0 to n - 1 do
    trow.(j + 1) <- trow.(j + 1) + trow.(j)
  done;
  let tcol = Array.make (nnz m) 0 and tval = Array.make (nnz m) 0.0 in
  let fill = Array.sub trow 0 n in
  for i = 0 to n - 1 do
    for k = m.row.(i) to m.row.(i + 1) - 1 do
      let j = m.col.(k) in
      tcol.(fill.(j)) <- i;
      tval.(fill.(j)) <- m.value.(k);
      fill.(j) <- fill.(j) + 1
    done
  done;
  { n; row = trow; col = tcol; value = tval }

(* --- Checked fixed points ------------------------------------------- *)

type convergence = { iterations : int; residual : float }

let fixed_point ?(max_iter = 1_000_000) ~tol ~phase sweep =
  let rec go k =
    Guard.poll ~phase ~partial:(fun () -> [ ("iterations", float_of_int k) ]) ();
    let delta = sweep () in
    let k = k + 1 in
    if delta < tol then { iterations = k; residual = delta }
    else if k >= max_iter then begin
      Dpma_obs.Metrics.incr Dpma_obs.Instruments.ctmc_solve_unconverged;
      raise
        (Guard.Resource_exceeded
           (Guard.convergence_trip ~phase ~iterations:k ~residual:delta
              ~tolerance:tol))
    end
    else go k
  in
  go 0

let gauss_seidel_stationary ?(max_iter = 100_000) ?(tol = 1e-12) q =
  let n = q.n in
  (* pi Q = 0 means, for each j, pi_j = (sum_{i<>j} pi_i q_ij) / (-q_jj):
     sweep the columns of Q — the rows of its transpose — with the
     diagonal split off. *)
  let qt = transpose q in
  let diag = Array.make n 0.0 in
  for j = 0 to n - 1 do
    for k = qt.row.(j) to qt.row.(j + 1) - 1 do
      if qt.col.(k) = j then diag.(j) <- diag.(j) +. qt.value.(k)
    done
  done;
  let pi = Array.make n (1.0 /. float_of_int n) in
  let c =
    fixed_point ~max_iter ~tol ~phase:"ctmc.solve" (fun () ->
        let delta = ref 0.0 in
        for j = 0 to n - 1 do
          if diag.(j) < 0.0 then begin
            let s = ref 0.0 in
            for k = qt.row.(j) to qt.row.(j + 1) - 1 do
              let i = qt.col.(k) in
              if i <> j then s := !s +. (pi.(i) *. qt.value.(k))
            done;
            let nv = !s /. -.diag.(j) in
            delta := !delta +. abs_float (nv -. pi.(j));
            pi.(j) <- nv
          end
        done;
        let total = ref 0.0 in
        for i = 0 to n - 1 do
          total := !total +. pi.(i)
        done;
        let total = !total in
        if total > 0.0 then
          for i = 0 to n - 1 do
            pi.(i) <- pi.(i) /. total
          done;
        !delta)
  in
  (pi, c)
