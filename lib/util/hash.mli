(** Integer hashes for [Hashtbl.Make] keys.

    [Hashtbl.Make] takes the bucket from the low bits of the hash, so
    every hash here ends with a xor-shift-multiply mix that brings the
    high bits down: keys that differ only in high bits (packed
    [label lsl 31 lor block] pairs, float bit patterns) still spread
    over the buckets. Results are non-negative. *)

val int : int -> int
(** Mix of one int. *)

val fold : int -> int -> int
(** [fold h x] folds one word into an unmixed accumulator (an FNV-1a
    step); finish a fold with {!int}. *)

val fold_ints : int -> int array -> int
(** {!fold} over every element, left to right. *)

val ints : int array -> int
(** Mixed hash of an array and its length. *)

module Int : Hashtbl.HashedType with type t = int
(** Ints hashed by {!int}, for [Hashtbl.Make]: the generic
    [Hashtbl.hash] runtime call would be pure overhead on hot int
    keys. *)

module Ints : Hashtbl.HashedType with type t = int array
(** Int arrays compared element-wise and hashed by {!ints}, for
    [Hashtbl.Make]. *)
