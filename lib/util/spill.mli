(** Append-only spill arena over one memory-mapped temp file.

    Data is stored as flat runs of 64-bit words: callers encode ints
    as-is and floats through [Int64.bits_of_float], so a spilled block
    reads back bit-identical to the resident data it replaced. The file
    is created lazily on the first {!write}; until then the arena costs
    nothing. Single-writer: the builders only write and read from the
    coordinating domain. *)

type t

val create : dir:string -> prefix:string -> t
(** An empty arena that will place its temp file in [dir] (named
    [<prefix>-<pid>-<serial>.spill]) if and when something is written. *)

val write : t -> (int -> int64) -> int -> int
(** [write t get len] appends [len] words, word [i] produced by [get i],
    and returns the word offset of the block. Grows the file and its
    shared mapping as needed. *)

val read : t -> off:int -> len:int -> (int -> int64 -> unit) -> unit
(** [read t ~off ~len set] calls [set i word] for each word of the block
    written at [off]. Raises [Invalid_argument] outside the written
    range. *)

val bytes_written : t -> int
(** Total bytes appended ([8 * words]). *)

val write_seconds : t -> float
(** Cumulative wall-clock time spent in {!write}. *)

val remove : t -> unit
(** Close and delete the temp file. Idempotent; safe when nothing was
    ever written. Callers run this from a [Fun.protect] finalizer so the
    file is gone on success and abort alike. *)
