(** Deterministic pseudo-random number generator (splitmix64).

    All randomness in the library flows through an explicit generator value,
    so every simulation and every property test is reproducible from its
    seed. The generator is cheap to create and to [split] into independent
    streams (one per simulation replication). *)

type t
(** Mutable generator state: the 64-bit splitmix word, stored unboxed in
    an 8-byte buffer, so advancing it reads and writes the word in place
    and allocates nothing. *)

val create : int -> t
(** [create seed] makes a fresh generator from an integer seed. *)

val copy : t -> t
(** Independent copy with identical state. *)

val split : t -> t
(** [split g] derives a new generator whose stream is statistically
    independent of the remainder of [g]'s stream; [g] advances. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val float : t -> float
(** Uniform in [0, 1). *)

val float_range : t -> float -> float -> float
(** [float_range g lo hi] is uniform in [lo, hi). Requires [lo <= hi]. *)

val int : t -> int -> int
(** [int g bound] is uniform in [0, bound). Requires [bound > 0]. *)

val choose_weighted : t -> float array -> int
(** [choose_weighted g weights] picks index [i] with probability
    proportional to [weights.(i)]. Requires at least one positive weight. *)
