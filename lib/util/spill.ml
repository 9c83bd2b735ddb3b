(* Append-only spill arena over one memory-mapped temp file.

   The segment stores of the LTS builders hand full segments here as flat
   runs of 64-bit words (ints as-is, floats through their IEEE-754 bit
   pattern), so a spilled segment reads back bit-identical to the resident
   one — the CSR compaction pass cannot tell the difference. The file is
   created lazily on the first write: a build whose resident budget never
   trips costs nothing but a couple of branch tests.

   Single-writer by design: the level-synchronous builders only touch the
   store from the coordinating domain (the merge phase), so no locking is
   needed. *)

type t = {
  dir : string;
  prefix : string;
  mutable fd : Unix.file_descr option;
  mutable path : string;  (* meaningful only once [fd] is set *)
  mutable words : int;  (* 64-bit words written so far *)
  mutable bytes_written : int;
  mutable write_seconds : float;
  (* Read-side mapping, cached while no write invalidates it (compaction
     reads only start after the last write). *)
  mutable rmap : (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t option;
}

let serial = Atomic.make 0

let create ~dir ~prefix =
  { dir; prefix; fd = None; path = ""; words = 0; bytes_written = 0;
    write_seconds = 0.0; rmap = None }

let ensure_fd t =
  match t.fd with
  | Some fd -> fd
  | None ->
      let path =
        Filename.concat t.dir
          (Printf.sprintf "%s-%d-%d.spill" t.prefix (Unix.getpid ())
             (Atomic.fetch_and_add serial 1))
      in
      let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_EXCL ] 0o600 in
      t.fd <- Some fd;
      t.path <- path;
      fd

let bytes_written t = t.bytes_written

let write_seconds t = t.write_seconds

(* Map the whole file as one int64 array. [Unix.map_file] with [shared =
   true] grows the file to the requested size, which is how appends extend
   it; the mapping itself is released when the bigarray is collected. *)
let map fd ~shared ~len =
  Bigarray.array1_of_genarray
    (Unix.map_file fd Bigarray.int64 Bigarray.c_layout shared [| len |])

let write t get len =
  if len < 0 then invalid_arg "Spill.write: negative length";
  let t0 = Dpma_obs.Clock.now_s () in
  let fd = ensure_fd t in
  let off = t.words in
  let a = map fd ~shared:true ~len:(off + len) in
  for i = 0 to len - 1 do
    Bigarray.Array1.set a (off + i) (get i)
  done;
  t.words <- off + len;
  t.rmap <- None;
  t.bytes_written <- t.bytes_written + (8 * len);
  t.write_seconds <- t.write_seconds +. (Dpma_obs.Clock.now_s () -. t0);
  off

let read t ~off ~len set =
  if len = 0 then ()
  else begin
    if off < 0 || len < 0 || off + len > t.words then
      invalid_arg "Spill.read: range outside the written words";
    let a =
      match t.rmap with
      | Some a -> a
      | None ->
          let fd =
            match t.fd with
            | Some fd -> fd
            | None -> invalid_arg "Spill.read: nothing was ever written"
          in
          let a = map fd ~shared:false ~len:t.words in
          t.rmap <- Some a;
          a
    in
    for i = 0 to len - 1 do
      set i (Bigarray.Array1.get a (off + i))
    done
  end

let remove t =
  t.rmap <- None;
  match t.fd with
  | None -> ()
  | Some fd ->
      t.fd <- None;
      (try Unix.close fd with Unix.Unix_error _ -> ());
      (try Sys.remove t.path with Sys_error _ -> ())
