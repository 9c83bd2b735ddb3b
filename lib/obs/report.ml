type format = Text | Json

let metrics_config : format option Atomic.t = Atomic.make None

let configure ?metrics ?trace () =
  (match metrics with
  | Some m -> Atomic.set metrics_config m
  | None -> ());
  match trace with Some t -> Trace.set_enabled t | None -> ()

let init_from_env () =
  (match Sys.getenv_opt "DPMA_METRICS" with
  | None -> ()
  | Some v -> (
      match String.lowercase_ascii (String.trim v) with
      | "" | "0" | "off" | "false" -> configure ~metrics:None ()
      | "json" -> configure ~metrics:(Some Json) ()
      | _ -> configure ~metrics:(Some Text) ()));
  match Sys.getenv_opt "DPMA_TRACE" with
  | None -> ()
  | Some v -> (
      match String.lowercase_ascii (String.trim v) with
      | "" | "0" | "off" | "false" -> configure ~trace:false ()
      | _ -> configure ~trace:true ())

let metrics_format () = Atomic.get metrics_config

let to_json () =
  Json.Obj
    ([
       ("schema", Json.Str "dpma.obs/1");
       ("metrics", Metrics.to_json ());
     ]
    @ if Trace.enabled () then [ ("trace", Trace.to_json ()) ] else [])

let emit oc =
  match (metrics_format (), Trace.enabled ()) with
  | None, false -> ()
  | Some Json, _ ->
      output_string oc (Json.to_string ~indent:2 (to_json ()));
      output_char oc '\n';
      flush oc
  | metrics, trace ->
      let ppf = Format.formatter_of_out_channel oc in
      (match metrics with
      | Some Text ->
          Format.fprintf ppf "== dpma metrics ==@.%a" Metrics.pp_text ()
      | Some Json | None -> ());
      if trace then Format.fprintf ppf "== dpma trace ==@.%a" Trace.pp_text ();
      Format.pp_print_flush ppf ();
      flush oc
