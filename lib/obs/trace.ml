type attr = Int of int | Float of float | Str of string

type span = {
  name : string;
  attrs : (string * attr) list;
  start_s : float;
  dur_s : float;
  children : span list;
}

let enabled_flag = Atomic.make false

let set_enabled b = Atomic.set enabled_flag b

let enabled () = Atomic.get enabled_flag

(* In-progress spans: one stack per domain, mutated only by that domain. *)
type frame = {
  f_name : string;
  mutable f_attrs : (string * attr) list;
  f_start : float;
  mutable f_children : span list; (* reverse completion order *)
}

let stack : frame list ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref [])

let max_roots = 10_000

let roots_lock = Mutex.create ()

let roots_rev : span list ref = ref []

let num_roots = ref 0

let num_dropped = ref 0

let push_root sp =
  Mutex.lock roots_lock;
  if !num_roots < max_roots then begin
    roots_rev := sp :: !roots_rev;
    incr num_roots
  end
  else incr num_dropped;
  Mutex.unlock roots_lock

let with_span name ?(attrs = []) f =
  if not (Atomic.get enabled_flag) then f ()
  else begin
    let st = Domain.DLS.get stack in
    let fr =
      { f_name = name; f_attrs = attrs; f_start = Clock.now_s (); f_children = [] }
    in
    st := fr :: !st;
    Fun.protect
      ~finally:(fun () ->
        (match !st with
        | top :: rest when top == fr -> st := rest
        | _ ->
            (* A nested span leaked (should be impossible with the
               protect-based discipline); drop down to our frame. *)
            let rec unwind = function
              | top :: rest when top != fr -> unwind rest
              | top :: rest when top == fr -> rest
              | frames -> frames
            in
            st := unwind !st);
        let sp =
          {
            name = fr.f_name;
            attrs = fr.f_attrs;
            start_s = fr.f_start;
            dur_s = Clock.now_s () -. fr.f_start;
            children = List.rev fr.f_children;
          }
        in
        match !st with
        | parent :: _ -> parent.f_children <- sp :: parent.f_children
        | [] -> push_root sp)
      f
  end

let add_attr key v =
  if Atomic.get enabled_flag then
    match !(Domain.DLS.get stack) with
    | fr :: _ -> fr.f_attrs <- fr.f_attrs @ [ (key, v) ]
    | [] -> ()

let roots () =
  Mutex.lock roots_lock;
  let rs = !roots_rev in
  Mutex.unlock roots_lock;
  List.sort (fun a b -> Float.compare a.start_s b.start_s) rs

let dropped () =
  Mutex.lock roots_lock;
  let d = !num_dropped in
  Mutex.unlock roots_lock;
  d

let reset () =
  Mutex.lock roots_lock;
  roots_rev := [];
  num_roots := 0;
  num_dropped := 0;
  Mutex.unlock roots_lock

let pp_attr ppf = function
  | Int n -> Format.pp_print_int ppf n
  | Float x -> Format.fprintf ppf "%.6g" x
  | Str s -> Format.pp_print_string ppf s

let pp_duration ppf d =
  if d >= 1.0 then Format.fprintf ppf "%8.3f s " d
  else if d >= 1e-3 then Format.fprintf ppf "%8.3f ms" (d *. 1e3)
  else Format.fprintf ppf "%8.1f us" (d *. 1e6)

let pp_text ppf () =
  let rec pp_span depth sp =
    Format.fprintf ppf "%s%-*s %a" (String.make (2 * depth) ' ')
      (max 1 (36 - (2 * depth)))
      sp.name pp_duration sp.dur_s;
    List.iter
      (fun (k, v) -> Format.fprintf ppf "  %s=%a" k pp_attr v)
      sp.attrs;
    Format.fprintf ppf "@.";
    List.iter (pp_span (depth + 1)) sp.children
  in
  List.iter (pp_span 0) (roots ());
  let d = dropped () in
  if d > 0 then
    Format.fprintf ppf "(%d further root spans dropped beyond the %d cap)@." d
      max_roots

let attr_to_json = function
  | Int n -> Json.num_of_int n
  | Float x -> Json.Num x
  | Str s -> Json.Str s

let rec span_to_json sp =
  Json.Obj
    ([
       ("name", Json.Str sp.name);
       ("start_s", Json.Num sp.start_s);
       ("dur_s", Json.Num sp.dur_s);
     ]
    @ (match sp.attrs with
      | [] -> []
      | attrs ->
          [ ("attrs", Json.Obj (List.map (fun (k, v) -> (k, attr_to_json v)) attrs)) ])
    @
    match sp.children with
    | [] -> []
    | children -> [ ("children", Json.List (List.map span_to_json children)) ])

let to_json () =
  Json.Obj
    [
      ("schema", Json.Str "dpma.trace/1");
      ("dropped", Json.num_of_int (dropped ()));
      ("spans", Json.List (List.map span_to_json (roots ())));
    ]
