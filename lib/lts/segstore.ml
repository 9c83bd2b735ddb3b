(* Spill-capable chunked segment storage for the edge and row columns
   of the [Explore] engine. See segstore.mli for the contract.

   A store is a set of parallel columns (n int columns, optionally one
   float column) growing in fixed-size segments. Under a resident-byte
   budget, full segments spill oldest-first to one memory-mapped temp
   file (one file per policy, shared by every store of the build); the
   compaction pass reads each spilled segment back exactly once. Words
   round-trip exactly (floats through their IEEE-754 bit pattern), so the
   compacted CSR arrays are bit-identical whether or not spill ever
   triggered. *)

module Spill = Dpma_util.Spill
module M = Dpma_obs.Metrics
module I = Dpma_obs.Instruments

(* --- Spill policy: one per build ------------------------------------- *)

type pending = { spill_now : unit -> int (* bytes released *) }

type policy = {
  seg_bits : int;
  seg_size : int;
  seg_mask : int;
  budget : int;  (* max resident segment bytes; max_int = never spill *)
  arena : Spill.t option;  (* None when spill is disabled *)
  mutable resident : int;  (* bytes currently held in store segments *)
  mutable resident_peak : int;
  mutable queue : pending list;  (* full segments, newest first *)
  mutable spilled_segments : int;
  mutable finished : bool;
}

(* Ambient defaults, installed once per process by the CLI front ends
   (dpma --spill-dir/--spill-mb, bench flags) so that every build of the
   run — including the ones behind [Lts.of_spec] deep in the pipeline —
   spills under the same budget without threading arguments through every
   caller. Explicit [Lts.build] arguments override them. *)
let default_dir : string option Atomic.t = Atomic.make None

let default_budget : int option Atomic.t = Atomic.make None

let set_defaults ?spill_dir ?max_resident_bytes () =
  Atomic.set default_dir spill_dir;
  Atomic.set default_budget max_resident_bytes

let policy ?spill_dir ?max_resident_bytes ?(seg_bits = 12) () =
  if seg_bits < 4 || seg_bits > 24 then
    invalid_arg "Segstore.policy: seg_bits must be in [4, 24]";
  let spill_dir =
    match spill_dir with Some _ as d -> d | None -> Atomic.get default_dir
  in
  let max_resident_bytes =
    match max_resident_bytes with
    | Some _ as b -> b
    | None -> Atomic.get default_budget
  in
  let budget, arena =
    match spill_dir with
    | None -> (max_int, None)
    | Some dir ->
        ( (match max_resident_bytes with Some b -> max 0 b | None -> max_int),
          Some (Spill.create ~dir ~prefix:"dpma-segs") )
  in
  { seg_bits; seg_size = 1 lsl seg_bits; seg_mask = (1 lsl seg_bits) - 1;
    budget; arena; resident = 0; resident_peak = 0; queue = [];
    spilled_segments = 0; finished = false }

type stats = {
  spilled_segments : int;
  spilled_bytes : int;
  spill_write_seconds : float;
  resident_bytes_peak : int;
}

let stats pol =
  let spilled_bytes, spill_write_seconds =
    match pol.arena with
    | None -> (0, 0.0)
    | Some a -> (Spill.bytes_written a, Spill.write_seconds a)
  in
  { spilled_segments = pol.spilled_segments; spilled_bytes;
    spill_write_seconds; resident_bytes_peak = pol.resident_peak }

let finish pol =
  if not pol.finished then begin
    pol.finished <- true;
    pol.queue <- [];
    match pol.arena with None -> () | Some a -> Spill.remove a
  end

(* Segment bookkeeping: a freshly allocated segment raises the resident
   count; once full it becomes spillable. Spill oldest-first while over
   budget — the oldest full segments are the ones compaction needs last. *)
let note_allocated pol bytes =
  pol.resident <- pol.resident + bytes;
  if pol.resident > pol.resident_peak then pol.resident_peak <- pol.resident

let drain pol =
  if pol.resident > pol.budget then begin
    let rec go = function
      | [] -> []
      | [ oldest ] ->
          pol.resident <- pol.resident - oldest.spill_now ();
          pol.spilled_segments <- pol.spilled_segments + 1;
          []
      | newer :: older -> newer :: go older
    in
    let rec until_under () =
      if pol.resident > pol.budget && pol.queue <> [] then begin
        pol.queue <- go pol.queue;
        until_under ()
      end
    in
    until_under ()
  end

let note_full pol p =
  if pol.budget < max_int then begin
    pol.queue <- p :: pol.queue;
    drain pol
  end

(* --- Columned stores -------------------------------------------------- *)

type seg = { ints : int array array; floats : float array }

type t = {
  pol : policy;
  int_cols : int;
  has_floats : bool;
  mutable segs : seg array;  (* directory; slots >= nsegs are unused *)
  mutable offs : int array;  (* si -> spill word offset, -1 = resident *)
  mutable nsegs : int;
  mutable total : int;
}

let no_seg = { ints = [||]; floats = [||] }

let seg_words st = (st.int_cols + if st.has_floats then 1 else 0) * st.pol.seg_size

let seg_bytes st = 8 * seg_words st

let create pol ~int_cols ~float_col =
  if pol.finished then invalid_arg "Segstore.create: policy already finished";
  if int_cols < 1 then invalid_arg "Segstore.create: need an int column";
  { pol; int_cols; has_floats = float_col; segs = Array.make 4 no_seg;
    offs = Array.make 4 (-1); nsegs = 0; total = 0 }

let fresh_seg st =
  { ints = Array.init st.int_cols (fun _ -> Array.make st.pol.seg_size 0);
    floats = (if st.has_floats then Array.make st.pol.seg_size 0.0 else [||]) }

let nsegs st = st.nsegs

let total st = st.total

(* Encode a full segment as one flat run of words: int columns first,
   then the float column as IEEE-754 bits. *)
let spill_seg st si =
  let arena = Option.get st.pol.arena in
  let seg = st.segs.(si) in
  let n = st.pol.seg_size in
  let get i =
    let c = i / n and o = i mod n in
    if c < st.int_cols then Int64.of_int seg.ints.(c).(o)
    else Int64.bits_of_float seg.floats.(o)
  in
  let off = Spill.write arena get (seg_words st) in
  st.offs.(si) <- off;
  st.segs.(si) <- no_seg;  (* release the resident arrays *)
  seg_bytes st

(* The segment holding the next pushed slot, allocating (and possibly
   spilling older segments) at segment boundaries. Returns the segment
   and the offset inside it; the caller writes its columns directly. *)
let push_slot st =
  let i = st.total in
  let si = i lsr st.pol.seg_bits in
  if si = st.nsegs then begin
    if si = Array.length st.segs then begin
      let segs = Array.make (2 * si) no_seg in
      Array.blit st.segs 0 segs 0 si;
      st.segs <- segs;
      let offs = Array.make (2 * si) (-1) in
      Array.blit st.offs 0 offs 0 si;
      st.offs <- offs
    end;
    st.segs.(si) <- fresh_seg st;
    st.nsegs <- si + 1;
    note_allocated st.pol (seg_bytes st);
    if si > 0 && st.offs.(si - 1) < 0 then begin
      let prev = si - 1 in
      note_full st.pol { spill_now = (fun () -> spill_seg st prev) }
    end
  end;
  st.total <- i + 1;
  (st.segs.(si), i land st.pol.seg_mask)

(* --- Compaction -------------------------------------------------------- *)

(* Copy column [c] of a spilled segment into [dst.(pos ..)]: one
   sequential read of the column's word run. *)
let read_spilled_ints st ~off ~col ~dst ~pos ~len =
  let arena = Option.get st.pol.arena in
  Spill.read arena ~off:(off + (col * st.pol.seg_size)) ~len (fun i w ->
      dst.(pos + i) <- Int64.to_int w)

let read_spilled_floats st ~off ~dst ~pos ~len =
  let arena = Option.get st.pol.arena in
  Spill.read arena ~off:(off + (st.int_cols * st.pol.seg_size)) ~len
    (fun i w -> dst.(pos + i) <- Int64.float_of_bits w)

let compact_into st ~ints ~floats ~n =
  if Array.length ints <> st.int_cols then
    invalid_arg "Segstore.compact_into: int column count mismatch";
  if Array.length floats <> (if st.has_floats then 1 else 0) then
    invalid_arg "Segstore.compact_into: float column count mismatch";
  if n > st.total then invalid_arg "Segstore.compact_into: n exceeds total";
  for si = 0 to st.nsegs - 1 do
    let pos = si * st.pol.seg_size in
    let len = min st.pol.seg_size (n - pos) in
    if len > 0 then
      if st.offs.(si) >= 0 then begin
        let off = st.offs.(si) in
        for c = 0 to st.int_cols - 1 do
          read_spilled_ints st ~off ~col:c ~dst:ints.(c) ~pos ~len
        done;
        if st.has_floats then
          read_spilled_floats st ~off ~dst:floats.(0) ~pos ~len
      end
      else begin
        let seg = st.segs.(si) in
        for c = 0 to st.int_cols - 1 do
          Array.blit seg.ints.(c) 0 ints.(c) pos len
        done;
        if st.has_floats then Array.blit seg.floats 0 floats.(0) pos len
      end
  done

(* Record a finished build's spill figures on the central instruments. *)
let record_metrics pol =
  let s = stats pol in
  if s.spilled_segments > 0 then begin
    M.add I.lts_spill_segments s.spilled_segments;
    M.add I.lts_spill_bytes s.spilled_bytes;
    M.observe I.lts_spill_write_seconds s.spill_write_seconds
  end
