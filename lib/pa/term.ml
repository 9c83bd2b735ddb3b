module Sset = Set.Make (String)
module Lset = Set.Make (Int)

type t = { uid : int; node : node }

and node =
  | Stop
  | Prefix of Label.t * Rate.t * t
  | Choice of t list
  | Call of string
  | Par of t * Lset.t * t
  | Hide of Lset.t * t
  | Restrict of Lset.t * t
  | Rename of (Label.t * Label.t) list * t

let tau = "tau"

(* ------------------------------------------------------------------ *)
(* Hash-consing. Children are compared by physical identity (they are
   themselves hash-consed), labels by integer value, label sets by
   identity and then by value (derived successors share their parent's
   set), rates structurally. The table is a plain bucket map keyed by
   node hash: terms live as long as the process, which matches how
   specifications are used (built once, explored many times). *)

let rec list_physically_equal xs ys =
  match (xs, ys) with
  | [], [] -> true
  | x :: xs, y :: ys -> x == y && list_physically_equal xs ys
  | _, _ -> false

let rename_map_equal m1 m2 =
  let pair_equal (a1, b1) (a2, b2) = a1 = a2 && b1 = b2 in
  List.length m1 = List.length m2 && List.for_all2 pair_equal m1 m2

let node_equal n1 n2 =
  match (n1, n2) with
  | Stop, Stop -> true
  | Prefix (a1, r1, k1), Prefix (a2, r2, k2) ->
      a1 = a2 && k1 == k2 && Rate.equal r1 r2
  | Choice ts1, Choice ts2 -> list_physically_equal ts1 ts2
  | Call n1, Call n2 -> String.equal n1 n2
  | Par (p1, s1, q1), Par (p2, s2, q2) ->
      p1 == p2 && q1 == q2 && (s1 == s2 || Lset.equal s1 s2)
  | Hide (s1, p1), Hide (s2, p2) | Restrict (s1, p1), Restrict (s2, p2) ->
      p1 == p2 && (s1 == s2 || Lset.equal s1 s2)
  | Rename (m1, p1), Rename (m2, p2) -> p1 == p2 && rename_map_equal m1 m2
  | (Stop | Prefix _ | Choice _ | Call _ | Par _ | Hide _ | Restrict _
    | Rename _), _ ->
      false

let combine acc x = (acc * 31) + x

let set_hash s = Lset.fold (fun l acc -> combine acc l) s 17

let node_hash = function
  | Stop -> 1
  | Prefix (a, r, k) ->
      combine (combine (combine 2 a) (Hashtbl.hash r)) k.uid
  | Choice ts -> List.fold_left (fun acc t -> combine acc t.uid) 3 ts
  | Call name -> combine 5 (Hashtbl.hash name)
  | Par (p, s, q) -> combine (combine (combine 7 p.uid) (set_hash s)) q.uid
  | Hide (s, p) -> combine (combine 11 (set_hash s)) p.uid
  | Restrict (s, p) -> combine (combine 13 (set_hash s)) p.uid
  | Rename (map, p) ->
      combine
        (List.fold_left
           (fun acc (a, b) -> combine (combine acc a) b)
           19 map)
        p.uid

(* Keyed by the node hash, a polynomial fold the table finishes with the
   shared int mix; every construction looks it up. *)
module Hash_tbl = Hashtbl.Make (Dpma_util.Hash.Int)

let table : t list Hash_tbl.t = Hash_tbl.create 4096

let mutex = Mutex.create ()

let next_uid = ref 0

let live = ref 0

let cons node =
  let h = node_hash node land max_int in
  Mutex.lock mutex;
  let bucket =
    match Hash_tbl.find_opt table h with Some b -> b | None -> []
  in
  let rec find = function
    | [] ->
        let t = { uid = !next_uid; node } in
        incr next_uid;
        incr live;
        Hash_tbl.replace table h (t :: bucket);
        t
    | t :: rest -> if node_equal t.node node then t else find rest
  in
  let t = find bucket in
  Mutex.unlock mutex;
  t

let hashcons_count () = !live

(* ------------------------------------------------------------------ *)
(* Smart constructors *)

let check_no_tau what set =
  if Sset.mem tau set then
    invalid_arg (Printf.sprintf "Term.%s: tau cannot be %s" what what)

let check_no_tau_label what set =
  if Lset.mem Label.tau set then
    invalid_arg (Printf.sprintf "Term.%s: tau cannot be %s" what what)

let lset_of_sset s = Sset.fold (fun a acc -> Lset.add (Label.intern a) acc) s Lset.empty

let stop = cons Stop

let prefix_label a r k = cons (Prefix (a, r, k))

let prefix a r k =
  if a = "" then invalid_arg "Term.prefix: empty action name";
  prefix_label (Label.intern a) r k

let choice ts =
  let flattened =
    List.concat_map (fun t -> match t.node with Choice us -> us | _ -> [ t ]) ts
  in
  match List.filter (fun t -> t != stop) flattened with
  | [] -> stop
  | [ t ] -> t
  | ts -> cons (Choice ts)

let call name =
  if name = "" then invalid_arg "Term.call: empty constant name";
  cons (Call name)

let par_labels p s q =
  check_no_tau_label "par" s;
  cons (Par (p, s, q))

let par p s q =
  check_no_tau "par" s;
  par_labels p (lset_of_sset s) q

let par_names p names q = par p (Sset.of_list names) q

let hide_labels s p =
  check_no_tau_label "hide" s;
  if Lset.is_empty s then p else cons (Hide (s, p))

let hide s p =
  check_no_tau "hide" s;
  hide_labels (lset_of_sset s) p

let restrict_labels s p =
  check_no_tau_label "restrict" s;
  if Lset.is_empty s then p else cons (Restrict (s, p))

let restrict s p =
  check_no_tau "restrict" s;
  restrict_labels (lset_of_sset s) p

let rename_labels map p =
  if map = [] then p
  else begin
    List.iter
      (fun (from_, to_) ->
        if from_ = Label.tau then invalid_arg "Term.rename: cannot rename tau";
        if to_ = Label.tau then
          invalid_arg "Term.rename: cannot rename to tau (use hide)")
      map;
    let sources = List.map fst map in
    if List.length (List.sort_uniq Int.compare sources) <> List.length sources
    then invalid_arg "Term.rename: duplicate source action";
    cons (Rename (map, p))
  end

let rename map p =
  if map = [] then p
  else begin
    List.iter
      (fun (from_, to_) ->
        if from_ = tau then invalid_arg "Term.rename: cannot rename tau";
        if to_ = tau then
          invalid_arg "Term.rename: cannot rename to tau (use hide)";
        if from_ = "" || to_ = "" then invalid_arg "Term.rename: empty name")
      map;
    rename_labels
      (List.map (fun (a, b) -> (Label.intern a, Label.intern b)) map)
      p
  end

let apply_rename_label map a =
  match List.assoc_opt a map with Some b -> b | None -> a

let equal a b = a == b

(* ------------------------------------------------------------------ *)
(* Rendering. Label sets print in alphabetical name order, matching the
   string-set rendering this module always had (id order would depend on
   interning order). *)

let sorted_names s =
  Lset.elements s |> List.map Label.name |> List.sort String.compare

let rec pp ppf t =
  match t.node with
  | Stop -> Format.pp_print_string ppf "stop"
  | Prefix (a, r, k) ->
      Format.fprintf ppf "<%s,%a>.%a" (Label.name a) Rate.pp r pp_atomic k
  | Choice ts ->
      Format.fprintf ppf "@[<hv>%a@]"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.fprintf ppf "@ + ")
           pp_atomic)
        ts
  | Call name -> Format.pp_print_string ppf name
  | Par (p, s, q) ->
      Format.fprintf ppf "@[<hv>%a@ |[%s]|@ %a@]" pp_atomic p
        (String.concat "," (sorted_names s))
        pp_atomic q
  | Hide (s, p) ->
      Format.fprintf ppf "hide {%s} in %a"
        (String.concat "," (sorted_names s))
        pp_atomic p
  | Restrict (s, p) ->
      Format.fprintf ppf "%a \\ {%s}" pp_atomic p
        (String.concat "," (sorted_names s))
  | Rename (map, p) ->
      Format.fprintf ppf "%a [%s]" pp_atomic p
        (String.concat ","
           (List.map
              (fun (a, b) ->
                Printf.sprintf "%s->%s" (Label.name a) (Label.name b))
              map))

and pp_atomic ppf t =
  match t.node with
  | Stop | Call _ | Prefix _ -> pp ppf t
  | Choice _ | Par _ | Hide _ | Restrict _ | Rename _ ->
      Format.fprintf ppf "(%a)" pp t

let to_string t = Format.asprintf "%a" pp t

let names_of_lset s =
  Lset.fold (fun l acc -> Sset.add (Label.name l) acc) s Sset.empty

let rec action_names t =
  match t.node with
  | Stop | Call _ -> Sset.empty
  | Prefix (a, _, k) ->
      let rest = action_names k in
      if a = Label.tau then rest else Sset.add (Label.name a) rest
  | Choice ts ->
      List.fold_left (fun acc t -> Sset.union acc (action_names t)) Sset.empty ts
  | Par (p, s, q) ->
      Sset.union (names_of_lset s)
        (Sset.union (action_names p) (action_names q))
  | Hide (_, p) | Restrict (_, p) -> action_names p
  | Rename (map, p) ->
      let base = action_names p in
      Sset.map
        (fun a -> Label.name (apply_rename_label map (Label.intern a)))
        base

type defs = (string * t) list

type spec = { defs : defs; init : t }

let lookup defs name =
  match List.assoc_opt name defs with
  | Some t -> t
  | None -> raise Not_found

let rec calls_of t =
  match t.node with
  | Stop -> Sset.empty
  | Prefix (_, _, k) -> calls_of k
  | Choice ts ->
      List.fold_left (fun acc t -> Sset.union acc (calls_of t)) Sset.empty ts
  | Call name -> Sset.singleton name
  | Par (p, _, q) -> Sset.union (calls_of p) (calls_of q)
  | Hide (_, p) | Restrict (_, p) | Rename (_, p) -> calls_of p

(* Constants reachable from [t] without crossing a Prefix: a cycle among
   these would make transition derivation diverge. *)
let rec unguarded_calls t =
  match t.node with
  | Stop | Prefix _ -> Sset.empty
  | Choice ts ->
      List.fold_left
        (fun acc t -> Sset.union acc (unguarded_calls t))
        Sset.empty ts
  | Call name -> Sset.singleton name
  | Par (p, _, q) -> Sset.union (unguarded_calls p) (unguarded_calls q)
  | Hide (_, p) | Restrict (_, p) | Rename (_, p) -> unguarded_calls p

let spec ~defs ~init =
  let names = List.map fst defs in
  if List.length (List.sort_uniq String.compare names) <> List.length names then
    invalid_arg "Term.spec: duplicate constant definition";
  let defined = Sset.of_list names in
  let check_calls ctx t =
    let undefined = Sset.diff (calls_of t) defined in
    if not (Sset.is_empty undefined) then
      invalid_arg
        (Printf.sprintf "Term.spec: %s references undefined constant(s) %s" ctx
           (String.concat ", " (Sset.elements undefined)))
  in
  check_calls "initial term" init;
  List.iter (fun (n, body) -> check_calls ("definition of " ^ n) body) defs;
  (* Guardedness: DFS on the unguarded-call graph must be acyclic. *)
  let visiting = Hashtbl.create 16 in
  let done_ = Hashtbl.create 16 in
  let rec visit name =
    if Hashtbl.mem done_ name then ()
    else if Hashtbl.mem visiting name then
      invalid_arg
        (Printf.sprintf "Term.spec: unguarded recursion through constant %s" name)
    else begin
      Hashtbl.add visiting name ();
      Sset.iter visit (unguarded_calls (lookup defs name));
      Hashtbl.remove visiting name;
      Hashtbl.add done_ name ()
    end
  in
  List.iter (fun (n, _) -> visit n) defs;
  { defs; init }
