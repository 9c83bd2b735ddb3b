let mib m = m * 1024 * 1024

let install ~max_seconds ~max_mb ~spill_dir ~spill_mb =
  let positive = function Some m -> m >= 1 | None -> true in
  match max_seconds with
  | Some s when not (Float.is_finite s && s >= 0.0) ->
      Error "--max-seconds expects a non-negative number"
  | _ when not (positive max_mb) -> Error "--max-mb expects a positive integer"
  | _ when not (positive spill_mb) -> Error "--spill-mb expects a positive integer"
  | _ ->
      Option.iter
        (fun dir ->
          let budget_mb =
            match (spill_mb, max_mb) with
            | Some b, _ -> b
            | None, Some m -> max 1 (m / 2)
            | None, None -> 64
          in
          Dpma_lts.Segstore.set_defaults ~spill_dir:dir
            ~max_resident_bytes:(mib budget_mb) ())
        spill_dir;
      if max_seconds <> None || max_mb <> None then
        Dpma_util.Guard.install
          (Dpma_util.Guard.create ?max_seconds
             ?max_resident_bytes:(Option.map mib max_mb) ());
      Ok ()
