(** Small dense linear algebra for CTMC steady-state and absorption systems.

    Matrices are [float array array], row-major. These routines target the
    moderate state spaces produced by the case studies (up to a few thousand
    states); larger systems go through {!Sparse}. *)

val solve : float array array -> float array -> float array
(** [solve a b] solves [a x = b] by Gaussian elimination with partial
    pivoting. Raises [Failure] when [a] is (numerically) singular.
    [a] and [b] are not modified. *)
