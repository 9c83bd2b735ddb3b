(** Hennessy–Milner logic formulas.

    Distinguishing formulas produced by the equivalence checker are HML
    formulas; over the weak (saturated) transition relation the diamond
    modality reads "there is a weak transition". The pretty-printer mimics
    TwoTowers' notation
    [EXISTS_WEAK_TRANS(LABEL(a); REACHED_STATE_SAT(phi))] used in the
    paper's Sect. 3.1 diagnostic. *)

type t =
  | True
  | Not of t
  | And of t list
  | Diamond of Lts.label * t
      (** over a saturated LTS, [Diamond (Tau, f)] is the weak
          "after some internal moves" modality *)

val neg : t -> t
val conj : t list -> t
(** Flattens nested conjunctions and drops [True] conjuncts. *)

val diamond : Lts.label -> t -> t

val size : t -> int
val depth : t -> int

val sat : Lts.t -> int -> t -> bool
(** [sat lts s f] — satisfaction over the given transition relation. Feed a
    saturated LTS to interpret the modalities weakly. *)

val pp : ?weak:bool -> Format.formatter -> t -> unit
(** TwoTowers-style rendering; [weak] (default [true]) selects
    [EXISTS_WEAK_TRANS] vs [EXISTS_TRANS]. *)

val to_string : ?weak:bool -> t -> string
