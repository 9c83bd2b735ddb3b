(** Process terms of the stochastic process algebra kernel.

    The kernel is the target of the ADL elaboration: each architectural
    element instance becomes a sequential term (prefix / choice / constant),
    and the topology becomes a tree of CSP-style parallel compositions whose
    synchronization sets are the attached interactions.

    Terms are hash-consed: structurally equal terms are physically equal
    and carry one unique id, so equality, hashing, and state-table lookups
    during state-space exploration are O(1) instead of a structural walk.
    Action names inside terms are interned {!Label.t} ids; the smart
    constructors still accept plain strings and intern on the way in.

    The distinguished action {!tau} is the invisible action: it cannot be
    synchronized on, restricted, or introduced by renaming (only {!hide}
    produces it). *)

module Sset : Set.S with type elt = string

module Lset : Set.S with type elt = Label.t
(** Interned-label sets (synchronization, hiding, restriction sets). *)

type t = private { uid : int; node : node }
(** Hash-consed: [equal a b] iff [a == b] iff [a.uid = b.uid]. *)

and node = private
  | Stop
  | Prefix of Label.t * Rate.t * t
  | Choice of t list
  | Call of string
  | Par of t * Lset.t * t
  | Hide of Lset.t * t
  | Restrict of Lset.t * t
  | Rename of (Label.t * Label.t) list * t

val tau : string
(** The invisible action name (interned as {!Label.tau}). *)

(** {2 Smart constructors}

    [choice] flattens nested choices and drops [Stop] summands; [par],
    [hide], [restrict] and [rename] validate that [tau] is not manipulated.
    [rename] additionally rejects duplicate source actions. *)

val stop : t
val prefix : string -> Rate.t -> t -> t
val choice : t list -> t
val call : string -> t
val par : t -> Sset.t -> t -> t
val par_names : t -> string list -> t -> t
val hide : Sset.t -> t -> t
val restrict : Sset.t -> t -> t
val rename : (string * string) list -> t -> t

val prefix_label : Label.t -> Rate.t -> t -> t
(** Like {!prefix} on an already-interned label. *)

val par_labels : t -> Lset.t -> t -> t
val hide_labels : Lset.t -> t -> t
val restrict_labels : Lset.t -> t -> t
val rename_labels : (Label.t * Label.t) list -> t -> t
(** Internal-facing constructors over interned labels, used by the SOS
    derivation to rebuild successor terms without round-tripping through
    strings. They enforce the same tau discipline. *)

val apply_rename_label : (Label.t * Label.t) list -> Label.t -> Label.t

val equal : t -> t -> bool

val hashcons_count : unit -> int
(** Number of distinct live terms in the hash-consing table. *)

val to_string : t -> string

val action_names : t -> Sset.t
(** All action names syntactically occurring in the term (post-renaming
    images included, [tau] excluded). Does not unfold constants. *)

type defs = (string * t) list
(** Named process constants. *)

type spec = { defs : defs; init : t }

val spec : defs:defs -> init:t -> spec
(** Validates that every [Call] in [init] or in a definition body is
    defined, that definition names are distinct, and that recursion is
    guarded (every cycle of constants passes through a [Prefix]).
    Raises [Invalid_argument] otherwise. *)

val lookup : defs -> string -> t
(** Raises [Not_found]. *)
