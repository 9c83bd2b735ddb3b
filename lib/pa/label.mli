(** Interned action labels.

    Every action name of the process algebra is interned into a
    process-wide symbol table: a label is a small [int], and all hot-path
    comparisons (synchronization-set membership, bisimulation signatures,
    transition grouping) are integer operations. The printable name is kept
    in a side table for diagnostics and rendering.

    The table is global rather than per-specification because the analyses
    routinely relate LTSs built from *different* specifications (the
    noninterference check compares the hidden-DPM and the DPM-less systems
    through a disjoint union): sharing one id space makes labels of
    distinct builds directly comparable with [Int.equal]. Interning is
    mutex-protected, so worker domains of the pool may elaborate models
    concurrently; id assignment order is then scheduling-dependent, which
    is why every user-facing enumeration sorts by {!name}, never by id. *)

type t = int

val tau : t
(** The invisible action, interned first: always [0]. *)

val intern : string -> t
(** Intern a name (idempotent). The empty string is rejected with
    [Invalid_argument]. *)

val find : string -> t option
(** [None] when the name was never interned (no allocation). *)

val name : t -> string
(** Printable name; raises [Invalid_argument] on an id never handed out. *)

val count : unit -> int
(** Number of distinct labels interned so far (including [tau]). *)

val equal : t -> t -> bool

val compare_by_name : t -> t -> int
(** Alphabetical order of the printable names — the deterministic order
    for user-facing listings (id order depends on interning order). *)
