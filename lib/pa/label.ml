type t = int

let mutex = Mutex.create ()

let ids : (string, int) Hashtbl.t = Hashtbl.create 256

(* id -> name, growable. Reads of cells below [next] are safe without the
   lock: a cell is written (under the lock) before its id escapes, and
   the array reference only ever grows. *)
let names = ref (Array.make 256 "")

let next = ref 0

let unsafe_add name =
  let id = !next in
  if id >= Array.length !names then begin
    let bigger = Array.make (2 * Array.length !names) "" in
    Array.blit !names 0 bigger 0 id;
    names := bigger
  end;
  !names.(id) <- name;
  incr next;
  Hashtbl.add ids name id;
  id

let intern name =
  if name = "" then invalid_arg "Label.intern: empty action name";
  Mutex.lock mutex;
  let id =
    match Hashtbl.find_opt ids name with
    | Some id -> id
    | None -> unsafe_add name
  in
  Mutex.unlock mutex;
  id

let tau =
  let id = intern "tau" in
  assert (id = 0);
  id

let find name =
  Mutex.lock mutex;
  let r = Hashtbl.find_opt ids name in
  Mutex.unlock mutex;
  r

let name id =
  if id < 0 || id >= !next then
    invalid_arg (Printf.sprintf "Label.name: unknown label id %d" id);
  !names.(id)

let count () = !next

let equal : t -> t -> bool = Int.equal

let compare_by_name a b = String.compare (name a) (name b)
