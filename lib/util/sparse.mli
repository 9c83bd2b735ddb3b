(** Sparse matrices in compressed sparse row form, and the checked
    iterative solvers of the CTMC engine.

    Row [i]'s entries occupy [row.(i)] inclusive to [row.(i+1)] exclusive
    of [col] (column indices) and [value]. A column may repeat within a
    row; repeated entries act additively in every operation. *)

type t = private {
  n : int;
  row : int array;
  col : int array;
  value : float array;
}

val of_csr : row:int array -> col:int array -> value:float array -> t
(** Wrap packed arrays (not copied) as an [n × n] matrix, [n = length row
    - 1]. Raises [Invalid_argument] when the arrays disagree. *)

val get : t -> int -> int -> float
(** [get m i j] is entry [(i, j)] (repeated entries summed); [0.] where
    none is stored. *)

val nnz : t -> int
(** Number of stored entries. *)

val vec_mat : float array -> t -> float array
(** [vec_mat x m] is the row-vector product [x m]. *)

val transpose : t -> t
(** [transpose m] is [m]'s transpose; row [j] lists column [j]'s entries
    in [m]'s row order (and stored order within a row). *)

(** {2 Checked fixed points}

    Every iterative loop of the CTMC engine runs through {!fixed_point}:
    it polls the ambient {!Guard} before each sweep (with the sweeps done
    so far as partial progress), stops when a sweep's change falls below
    the tolerance, and raises [Guard.Resource_exceeded] with a
    {!Guard.convergence_trip} — counted in [ctmc.solve.unconverged] —
    when it reaches its sweep cap first. *)

type convergence = {
  iterations : int;  (** sweeps performed *)
  residual : float;  (** the last sweep's change, below the tolerance *)
}

val fixed_point :
  ?max_iter:int -> tol:float -> phase:string -> (unit -> float) -> convergence
(** [fixed_point ~tol ~phase sweep] runs [sweep] (which performs one
    sweep and returns its change) until the change is below [tol], at
    most [max_iter] times (default [10^6]). [phase] names the loop in
    guard trips, convergence trips included. Returns the converged loop's
    report; a loop that reaches its cap raises instead. *)

val gauss_seidel_stationary :
  ?max_iter:int -> ?tol:float -> t -> float array * convergence
(** [gauss_seidel_stationary q] solves [pi Q = 0, sum pi = 1] for an
    irreducible generator [q] (diagonal entries included) by Gauss–Seidel
    sweeps over the columns of [Q], renormalizing after each sweep, until
    a sweep's L1 change falls below [tol] (default [1e-12]); at most
    [max_iter] (default [100_000]) sweeps, under phase ["ctmc.solve"]. *)
