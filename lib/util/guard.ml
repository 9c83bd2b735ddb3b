(* Per-run wall-clock and resident-memory guards with graceful
   degradation. See guard.mli for the contract. *)

module M = Dpma_obs.Metrics
module I = Dpma_obs.Instruments

type resource = Wall_clock | Resident_memory | Convergence

let resource_name = function
  | Wall_clock -> "wall_clock"
  | Resident_memory -> "resident_memory"
  | Convergence -> "convergence"

type trip = {
  resource : resource;
  phase : string;
  limit : float;
  actual : float;
  partial : (string * float) list;
}

exception Resource_exceeded of trip

type t = {
  max_seconds : float option;
  max_bytes : float option;
  started : float;
}

let create ?max_seconds ?max_resident_bytes () =
  (match max_seconds with
  | Some s when not (Float.is_finite s) || s < 0.0 ->
      invalid_arg "Guard.create: max_seconds must be finite and non-negative"
  | _ -> ());
  (match max_resident_bytes with
  | Some b when b < 0 ->
      invalid_arg "Guard.create: max_resident_bytes must be non-negative"
  | _ -> ());
  { max_seconds;
    max_bytes = Option.map float_of_int max_resident_bytes;
    started = Dpma_obs.Clock.now_s () }

(* The installed guard is ambient: one per run, installed by the entry
   point (dpma flags, a bench leg, a test) and polled by the phases it
   covers without threading an argument through every signature. *)
let current : t option Atomic.t = Atomic.make None

let install g = Atomic.set current (Some g)

let clear () = Atomic.set current None

let installed () = Atomic.get current <> None

let with_guard g f =
  install g;
  Fun.protect ~finally:clear f

let resident_bytes () =
  let s = Gc.quick_stat () in
  float_of_int s.Gc.heap_words *. float_of_int (Sys.word_size / 8)

let poll ?(partial = fun () -> []) ~phase () =
  match Atomic.get current with
  | None -> ()
  | Some g ->
      M.incr I.guard_polls;
      let trip resource limit actual =
        M.incr I.guard_trips;
        (* One trip aborts the phase; leaving the guard installed would
           make every later phase of the run trip on sight. *)
        clear ();
        raise
          (Resource_exceeded
             { resource; phase; limit; actual; partial = partial () })
      in
      (match g.max_seconds with
      | Some limit ->
          let elapsed = Dpma_obs.Clock.now_s () -. g.started in
          if elapsed > limit then trip Wall_clock limit elapsed
      | None -> ());
      (match g.max_bytes with
      | Some limit ->
          let actual = resident_bytes () in
          if actual > limit then trip Resident_memory limit actual
      | None -> ())

let convergence_trip ~phase ~iterations ~residual ~tolerance =
  { resource = Convergence; phase; limit = tolerance; actual = residual;
    partial = [ ("iterations", float_of_int iterations) ] }

(* --- Degraded verdict rendering -------------------------------------- *)

module Json = Dpma_obs.Json

let verdict_json t =
  Json.Obj
    [ ("schema", Json.Str "dpma.degraded/1");
      ("verdict", Json.Str "degraded");
      ("resource", Json.Str (resource_name t.resource));
      ("phase", Json.Str t.phase);
      ("limit", Json.Num t.limit);
      ("actual", Json.Num t.actual);
      ("partial", Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) t.partial))
    ]

let verdict_line t = Json.to_string (verdict_json t)

let pp_trip ppf t =
  let qty v =
    match t.resource with
    | Wall_clock -> Printf.sprintf "%.3g s" v
    | Resident_memory -> Printf.sprintf "%.1f MiB" (v /. 1048576.0)
    | Convergence -> Printf.sprintf "%.3g" v
  in
  (match t.resource with
  | Convergence ->
      Format.fprintf ppf "no convergence in %s: residual %s > tolerance %s"
        t.phase (qty t.actual) (qty t.limit)
  | Wall_clock | Resident_memory ->
      Format.fprintf ppf "%s guard tripped in %s: %s > limit %s"
        (resource_name t.resource) t.phase (qty t.actual) (qty t.limit));
  List.iter (fun (k, v) -> Format.fprintf ppf "; %s=%.6g" k v) t.partial
