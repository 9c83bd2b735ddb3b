(** Spill-capable chunked segment storage for the edge and row-offset
    columns of the {!Explore} engine (and so of {!Lts.build} and
    {!Flts.build_family}).

    A store holds parallel columns (a fixed number of int columns and
    optionally one float column) growing in fixed-size segments: no O(n)
    copy spikes while exploring, and — new with this module — full
    segments can leave memory. Under a {!policy} with a spill directory
    and a resident-byte budget, full segments are written oldest-first to
    one memory-mapped temp file ({!Dpma_util.Spill}) whenever the
    resident segment bytes of the build exceed the budget. The compaction
    pass ({!compact_into}) touches each segment exactly once, reading
    spilled segments back from the file; every word round-trips exactly
    (floats through their IEEE-754 bit pattern), so the compacted arrays
    are bit-identical whether or not spill triggered.

    Single-writer: stores are only pushed and compacted from the
    coordinating domain of the exploration engine. *)

(** {1 Policy: one per build} *)

type policy
(** The per-build spill configuration and accounting, shared by every
    store of the build (edges and row offsets spill against one common
    budget, into one common temp file). *)

val policy :
  ?spill_dir:string -> ?max_resident_bytes:int -> ?seg_bits:int -> unit ->
  policy
(** [spill_dir] enables spilling (temp file created lazily, on the first
    segment actually spilled); [max_resident_bytes] is the resident
    segment budget that triggers it (unlimited when omitted, so nothing
    ever spills). Omitted arguments fall back to the ambient
    {!set_defaults}. [seg_bits] sets the segment size to [2^seg_bits]
    rows (default 12; the differential tests shrink it to force spill on
    small models). Storage layout only — the compacted output is
    identical for any value. *)

val set_defaults : ?spill_dir:string -> ?max_resident_bytes:int -> unit -> unit
(** Install process-wide defaults for the two policy knobs, used by every
    subsequent {!policy} call that does not pass them explicitly. The CLI
    front ends call this once from [--spill-dir]/[--spill-mb] so builds
    deep inside the pipeline spill too. Passing neither clears both. *)

type stats = {
  spilled_segments : int;  (** full segments written to the temp file *)
  spilled_bytes : int;  (** bytes appended to the temp file *)
  spill_write_seconds : float;  (** wall-clock time spent writing them *)
  resident_bytes_peak : int;
      (** peak resident segment bytes of this policy's stores *)
}

val stats : policy -> stats

val finish : policy -> unit
(** Close and delete the spill temp file (idempotent). The builders call
    this from a [Fun.protect] finalizer, so the file is removed on
    success and on abort — including a tripped resource guard. *)

val record_metrics : policy -> unit
(** Record the policy's spill figures on [lts.spill.*] (no-op when
    nothing spilled). *)

(** {1 Columned stores} *)

type seg = { ints : int array array; floats : float array }
(** One resident segment: [ints.(c).(o)] is row [o] of int column [c];
    [floats] is empty for stores without a float column. *)

type t

val create : policy -> int_cols:int -> float_col:bool -> t

val push_slot : t -> seg * int
(** The segment and in-segment offset of the next row; the caller writes
    each column directly ([seg.ints.(c).(o) <- v]). Allocates a fresh
    segment at segment boundaries, which is also when the previous — now
    full — segment becomes spillable and the budget is enforced. *)

val total : t -> int
(** Rows pushed so far. *)

val nsegs : t -> int
(** Segments allocated (resident or spilled). *)

val compact_into : t -> ints:int array array -> floats:float array array -> n:int -> unit
(** Copy the first [n] rows column-wise into flat arrays ([ints] one
    destination per int column, [floats] empty or one destination),
    reading spilled segments back from the temp file. Each destination
    must hold at least [n] entries. *)
