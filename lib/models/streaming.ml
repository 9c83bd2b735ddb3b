module Ast = Dpma_adl.Ast
module Elaborate = Dpma_adl.Elaborate
module Dist = Dpma_dist.Dist
module Measure = Dpma_measures.Measure
module Pipeline = Dpma_core.Pipeline

type params = {
  ap_buffer_size : int;
  client_buffer_size : int;
  service_mean : float;
  propagation_mean : float;
  propagation_stddev : float;
  loss_probability : float;
  check_mean : float;
  nic_awake_mean : float;
  initial_delay_mean : float;
  render_mean : float;
  shutdown_mean : float;
  awake_period_mean : float;
  power_awake : float;
  power_doze : float;
  monitor_rate : float;
}

let default_params =
  {
    ap_buffer_size = 10;
    client_buffer_size = 10;
    service_mean = 67.0;
    propagation_mean = 4.0;
    propagation_stddev = 0.4;
    loss_probability = 0.02;
    check_mean = 5.0;
    nic_awake_mean = 15.0;
    initial_delay_mean = 684.0;
    render_mean = 67.0;
    shutdown_mean = 5.0;
    awake_period_mean = 100.0;
    power_awake = 1.0;
    power_doze = 0.05;
    monitor_rate = 1e-4;
  }

type mode = Markovian | General

let pre a r k = Ast.Prefix (a, r, k)
let alt ts = Ast.Choice ts
let goto n = Ast.Call (n, [])
let eq name body = { Ast.eq_name = name; eq_params = []; eq_body = body }
let passive = Ast.Passive 1.0
let imm ?(prio = 1) ?(weight = 1.0) () = Ast.Inf (prio, weight)
let exp_mean m = Ast.Exp (1.0 /. m)

let timed_rate mode mean general =
  match mode with Markovian -> exp_mean mean | General -> Ast.Gen general

let det_rate mode mean = timed_rate mode mean (Dist.Deterministic mean)

(* The station element types (everything but the video server) are shared
   between the paper's single-client architecture ({!archi}) and the
   parameterized N-station scaling model ({!scaled_archi}). *)
let station_elem_types ~mode ~monitors p =
  let timed = timed_rate mode in
  let det = det_rate mode in
  let monitor name target =
    if monitors then [ pre name (Ast.Exp p.monitor_rate) (goto target) ]
    else []
  in
  (* Access point: a parameterized counter 0..size; sending the last
     frame announces the buffer-empty condition to the DPM. Written with
     the ADL's data parameters and guards rather than one equation per
     fill level. *)
  let int_param name = { Ast.p_name = name; p_type = Ast.TInt } in
  let v x = Ast.Var x and num n = Ast.Int n in
  let lt a b = Ast.Binop (Ast.Lt, a, b)
  and gt a b = Ast.Binop (Ast.Gt, a, b)
  and eqe a b = Ast.Binop (Ast.Eq, a, b)
  and plus a b = Ast.Binop (Ast.Add, a, b)
  and minus a b = Ast.Binop (Ast.Sub, a, b) in
  let guard e t = Ast.Guard (e, t) in
  let peq name params body = { Ast.eq_name = name; eq_params = params; eq_body = body } in
  let ap =
    {
      Ast.et_name = "Access_Point_Type";
      et_consts = [ int_param "size" ];
      equations =
        [
          peq "Ap_Start" [] (Ast.Call ("Ap", [ num 0 ]));
          peq "Ap"
            [ int_param "h" ]
            (alt
               [
                 guard
                   (lt (v "h") (v "size"))
                   (pre "receive_frame" passive
                      (Ast.Call ("Ap", [ plus (v "h") (num 1) ])));
                 guard
                   (eqe (v "h") (v "size"))
                   (pre "receive_frame" passive
                      (pre "lose_frame_ap" (imm ~prio:2 ())
                         (Ast.Call ("Ap", [ v "size" ]))));
                 guard
                   (gt (v "h") (num 1))
                   (pre "send_to_nic" (imm ())
                      (Ast.Call ("Ap", [ minus (v "h") (num 1) ])));
                 guard
                   (eqe (v "h") (num 1))
                   (pre "send_to_nic" (imm ())
                      (pre "notify_empty" (imm ~prio:2 ())
                         (Ast.Call ("Ap", [ num 0 ]))));
               ]);
        ];
      inputs = [ "receive_frame" ];
      outputs = [ "send_to_nic"; "notify_empty" ];
    }
  in
  let propagation =
    timed p.propagation_mean
      (Dist.Normal (p.propagation_mean, p.propagation_stddev))
  in
  let channel =
    {
      Ast.et_name = "Radio_Channel_Type";
      et_consts = [];
      equations =
        [
          eq "Radio_Channel" (pre "get_packet" passive (goto "Propagating"));
          eq "Propagating" (pre "propagate_packet" propagation (goto "Deciding"));
          eq "Deciding"
            (alt
               [
                 pre "keep_packet"
                   (imm ~weight:(1.0 -. p.loss_probability) ())
                   (goto "Delivering");
                 pre "lose_packet"
                   (imm ~weight:p.loss_probability ())
                   (goto "Radio_Channel");
               ]);
          eq "Delivering"
            (pre "deliver_packet" (imm ~prio:2 ()) (goto "Radio_Channel"));
        ];
      inputs = [ "get_packet" ];
      outputs = [ "deliver_packet" ];
    }
  in
  let nic =
    {
      Ast.et_name = "Nic_Type";
      et_consts = [];
      equations =
        [
          eq "Nic_Awake"
            (alt
               ([
                  pre "receive_frame" passive (goto "Nic_Forwarding");
                  pre "receive_shutdown" passive (goto "Nic_Doze");
                ]
               @ monitor "monitor_nic_awake" "Nic_Awake"));
          eq "Nic_Forwarding"
            (pre "forward_frame" (imm ~prio:2 ()) (goto "Nic_Awake"));
          eq "Nic_Doze"
            (alt
               ([ pre "receive_wakeup" passive (goto "Nic_Awaking") ]
               @ monitor "monitor_nic_doze" "Nic_Doze"));
          eq "Nic_Awaking"
            (alt
               ([ pre "awake_nic" (det p.nic_awake_mean) (goto "Nic_Checking") ]
               @ monitor "monitor_nic_awaking" "Nic_Awaking"));
          eq "Nic_Checking"
            (alt
               ([ pre "check_buffer" (det p.check_mean) (goto "Nic_Awake") ]
               @ monitor "monitor_nic_checking" "Nic_Checking"));
        ];
      inputs = [ "receive_frame"; "receive_shutdown"; "receive_wakeup" ];
      outputs = [ "forward_frame" ];
    }
  in
  let buffer =
    {
      Ast.et_name = "Client_Buffer_Type";
      et_consts = [ int_param "size" ];
      equations =
        [
          peq "Buf_Start" [] (Ast.Call ("Buf", [ num 0 ]));
          peq "Buf"
            [ int_param "h" ]
            (alt
               [
                 guard
                   (lt (v "h") (v "size"))
                   (pre "put_frame" passive
                      (Ast.Call ("Buf", [ plus (v "h") (num 1) ])));
                 guard
                   (eqe (v "h") (v "size"))
                   (pre "put_frame" passive
                      (pre "lose_frame_b" (imm ~prio:2 ())
                         (Ast.Call ("Buf", [ v "size" ]))));
                 guard
                   (gt (v "h") (num 0))
                   (pre "get_frame" passive
                      (Ast.Call ("Buf", [ minus (v "h") (num 1) ])));
                 guard
                   (eqe (v "h") (num 0))
                   (pre "miss_frame" passive (Ast.Call ("Buf", [ num 0 ])));
               ]);
        ];
      inputs = [ "put_frame"; "get_frame"; "miss_frame" ];
      outputs = [];
    }
  in
  let client =
    {
      Ast.et_name = "Client_Type";
      et_consts = [];
      equations =
        [
          eq "Client_Init"
            (pre "start_delay" (det p.initial_delay_mean) (goto "Client_Fetch"));
          eq "Client_Fetch"
            (alt
               [
                 pre "take_frame" (imm ()) (goto "Client_Render");
                 pre "report_miss" (imm ()) (goto "Client_Render");
               ]);
          eq "Client_Render"
            (pre "render_frame" (det p.render_mean) (goto "Client_Fetch"));
        ];
      inputs = [];
      outputs = [ "take_frame"; "report_miss" ];
    }
  in
  let dpm =
    {
      Ast.et_name = "Dpm_Type";
      et_consts = [];
      equations =
        [
          eq "Dpm_Watching"
            (pre "receive_empty_notice" passive (goto "Dpm_Shutting"));
          eq "Dpm_Shutting"
            (alt
               [
                 pre "send_shutdown" (det p.shutdown_mean) (goto "Dpm_Dozing");
                 pre "receive_empty_notice" passive (goto "Dpm_Shutting");
               ]);
          eq "Dpm_Dozing"
            (alt
               [
                 pre "wakeup_timer" (det p.awake_period_mean) (goto "Dpm_Waking");
                 pre "receive_empty_notice" passive (goto "Dpm_Dozing");
               ]);
          eq "Dpm_Waking"
            (alt
               [
                 pre "send_wakeup" (imm ~prio:2 ()) (goto "Dpm_Watching");
                 pre "receive_empty_notice" passive (goto "Dpm_Waking");
               ]);
        ];
      inputs = [ "receive_empty_notice" ];
      outputs = [ "send_shutdown"; "send_wakeup" ];
    }
  in
  (ap, channel, nic, buffer, client, dpm)

let attach from_inst from_port to_inst to_port =
  { Ast.from_inst; from_port; to_inst; to_port }

let archi ?(mode = Markovian) ?(monitors = true) p =
  if p.ap_buffer_size < 1 || p.client_buffer_size < 1 then
    invalid_arg "Streaming.archi: buffer sizes must be at least 1";
  let ap, channel, nic, buffer, client, dpm =
    station_elem_types ~mode ~monitors p
  in
  let server =
    {
      Ast.et_name = "Video_Server_Type";
      et_consts = [];
      equations =
        [ eq "Video_Server"
            (pre "send_frame" (det_rate mode p.service_mean)
               (goto "Video_Server")) ];
      inputs = [];
      outputs = [ "send_frame" ];
    }
  in
  {
    Ast.name = "STREAMING_DPM";
    features = [];
    elem_types = [ server; ap; channel; nic; buffer; client; dpm ];
    instances =
      [
        { Ast.inst_name = "S"; inst_type = "Video_Server_Type"; inst_args = [] };
        {
          Ast.inst_name = "AP";
          inst_type = "Access_Point_Type";
          inst_args = [ Ast.Int p.ap_buffer_size ];
        };
        { Ast.inst_name = "RSC"; inst_type = "Radio_Channel_Type"; inst_args = [] };
        { Ast.inst_name = "NIC"; inst_type = "Nic_Type"; inst_args = [] };
        {
          Ast.inst_name = "B";
          inst_type = "Client_Buffer_Type";
          inst_args = [ Ast.Int p.client_buffer_size ];
        };
        { Ast.inst_name = "C"; inst_type = "Client_Type"; inst_args = [] };
        { Ast.inst_name = "DPM"; inst_type = "Dpm_Type"; inst_args = [] };
      ];
    attachments =
      [
        attach "S" "send_frame" "AP" "receive_frame";
        attach "AP" "send_to_nic" "RSC" "get_packet";
        attach "RSC" "deliver_packet" "NIC" "receive_frame";
        attach "NIC" "forward_frame" "B" "put_frame";
        attach "C" "take_frame" "B" "get_frame";
        attach "C" "report_miss" "B" "miss_frame";
        attach "AP" "notify_empty" "DPM" "receive_empty_notice";
        attach "DPM" "send_shutdown" "NIC" "receive_shutdown";
        attach "DPM" "send_wakeup" "NIC" "receive_wakeup";
      ];
  }

(* --- Parameterized N-station scaling model --------------------------- *)

type scaled_params = {
  stations : int;
  radio_channel : bool;
  station : params;
}

(* Calibrated so the default configuration crosses the 500k-state mark
   (see test_models for the pinned count) while one station stays small
   enough for unit tests. The state count is roughly (station size)^N, so
   the per-station radio channel — a x4 factor that does not touch the
   DPM behavior the model stresses — is off by default. *)
let default_scaled_params =
  { stations = 2; radio_channel = false;
    station = { default_params with ap_buffer_size = 2; client_buffer_size = 2 } }

let scaled_archi ?(mode = Markovian) ?(monitors = false) sp =
  if sp.stations < 1 then
    invalid_arg "Streaming.scaled_archi: stations must be at least 1";
  let p = sp.station in
  if p.ap_buffer_size < 1 || p.client_buffer_size < 1 then
    invalid_arg "Streaming.scaled_archi: buffer sizes must be at least 1";
  let n = sp.stations in
  let ap, channel, nic, buffer, client, dpm =
    station_elem_types ~mode ~monitors p
  in
  let port i = Printf.sprintf "send_frame_%d" i in
  (* UNI ports attach exactly once, so an N-station server needs one
     output port per station: it serves them round-robin. *)
  let server =
    {
      Ast.et_name = "Video_Server_Scaled_Type";
      et_consts = [];
      equations =
        List.init n (fun k ->
            let i = k + 1 in
            let next = (i mod n) + 1 in
            eq
              (Printf.sprintf "Send_%d" i)
              (pre (port i) (det_rate mode p.service_mean)
                 (goto (Printf.sprintf "Send_%d" next))));
      inputs = [];
      outputs = List.init n (fun k -> port (k + 1));
    }
  in
  let inst name ty args =
    { Ast.inst_name = name; inst_type = ty; inst_args = args }
  in
  let sfx base i = base ^ string_of_int i in
  let station_instances i =
    [ inst (sfx "AP" i) "Access_Point_Type" [ Ast.Int p.ap_buffer_size ] ]
    @ (if sp.radio_channel then [ inst (sfx "RSC" i) "Radio_Channel_Type" [] ]
       else [])
    @ [
        inst (sfx "NIC" i) "Nic_Type" [];
        inst (sfx "B" i) "Client_Buffer_Type" [ Ast.Int p.client_buffer_size ];
        inst (sfx "C" i) "Client_Type" [];
        inst (sfx "DPM" i) "Dpm_Type" [];
      ]
  in
  let station_attachments i =
    [ attach "S" (port i) (sfx "AP" i) "receive_frame" ]
    @ (if sp.radio_channel then
         [
           attach (sfx "AP" i) "send_to_nic" (sfx "RSC" i) "get_packet";
           attach (sfx "RSC" i) "deliver_packet" (sfx "NIC" i) "receive_frame";
         ]
       else
         [ attach (sfx "AP" i) "send_to_nic" (sfx "NIC" i) "receive_frame" ])
    @ [
        attach (sfx "NIC" i) "forward_frame" (sfx "B" i) "put_frame";
        attach (sfx "C" i) "take_frame" (sfx "B" i) "get_frame";
        attach (sfx "C" i) "report_miss" (sfx "B" i) "miss_frame";
        attach (sfx "AP" i) "notify_empty" (sfx "DPM" i) "receive_empty_notice";
        attach (sfx "DPM" i) "send_shutdown" (sfx "NIC" i) "receive_shutdown";
        attach (sfx "DPM" i) "send_wakeup" (sfx "NIC" i) "receive_wakeup";
      ]
  in
  let stations = List.init n (fun k -> k + 1) in
  {
    Ast.name = "STREAMING_DPM_SCALED";
    features = [];
    elem_types =
      [ server; ap ]
      @ (if sp.radio_channel then [ channel ] else [])
      @ [ nic; buffer; client; dpm ];
    instances =
      inst "S" "Video_Server_Scaled_Type" []
      :: List.concat_map station_instances stations;
    attachments = List.concat_map station_attachments stations;
  }

let scaled_spec ?mode ?monitors sp =
  (Elaborate.elaborate (scaled_archi ?mode ?monitors sp)).Elaborate.spec

(* Memoized exactly like [Rpc.elaborate]: figure sweeps (fig4, fig6, fig8
   and the DPM-less references) revisit the same configurations, and the
   sweeps run on a domain pool, hence the mutex. *)
let elaborate_cache : (mode * bool * params, Elaborate.elaborated) Hashtbl.t =
  Hashtbl.create 64

let elaborate_cache_mutex = Mutex.create ()

let elaborate ?(mode = Markovian) ?(monitors = true) p =
  let key = (mode, monitors, p) in
  let cached =
    Mutex.protect elaborate_cache_mutex (fun () ->
        Hashtbl.find_opt elaborate_cache key)
  in
  match cached with
  | Some el -> el
  | None ->
      let el = Elaborate.elaborate (archi ~mode ~monitors p) in
      Mutex.protect elaborate_cache_mutex (fun () ->
          Hashtbl.replace elaborate_cache key el);
      el

let high_actions =
  [
    "DPM.send_shutdown#NIC.receive_shutdown";
    "DPM.send_wakeup#NIC.receive_wakeup";
  ]

let low_actions =
  [
    "C.take_frame#B.get_frame";
    "C.report_miss#B.miss_frame";
    "C.render_frame";
    "C.start_delay";
  ]

let measures p =
  [
    Measure.measure "energy"
      [
        Measure.state_clause "NIC.monitor_nic_awake" p.power_awake;
        Measure.state_clause "NIC.monitor_nic_awaking" p.power_awake;
        Measure.state_clause "NIC.monitor_nic_checking" p.power_awake;
        Measure.state_clause "NIC.monitor_nic_doze" p.power_doze;
      ];
    Measure.measure "frames"
      [ Measure.trans_clause "NIC.forward_frame#B.put_frame" 1.0 ];
    Measure.measure "takes"
      [ Measure.trans_clause "C.take_frame#B.get_frame" 1.0 ];
    Measure.measure "misses"
      [ Measure.trans_clause "C.report_miss#B.miss_frame" 1.0 ];
    Measure.measure "sent"
      [ Measure.trans_clause "S.send_frame#AP.receive_frame" 1.0 ];
    Measure.measure "lost_ap" [ Measure.trans_clause "AP.lose_frame_ap" 1.0 ];
    Measure.measure "lost_b" [ Measure.trans_clause "B.lose_frame_b" 1.0 ];
  ]

type metrics = {
  energy_per_frame : float;
  loss : float;
  miss : float;
  quality : float;
}

let metrics_of_values values =
  let get name =
    match List.assoc_opt name values with
    | Some v -> v
    | None ->
        invalid_arg (Printf.sprintf "Streaming.metrics_of_values: missing %s" name)
  in
  let energy = get "energy" in
  let frames = get "frames" in
  let takes = get "takes" in
  let misses = get "misses" in
  let sent = get "sent" in
  let lost = get "lost_ap" +. get "lost_b" in
  let fetches = takes +. misses in
  {
    energy_per_frame = (if frames > 0.0 then energy /. frames else nan);
    loss = (if sent > 0.0 then lost /. sent else 0.0);
    miss = (if fetches > 0.0 then misses /. fetches else 0.0);
    quality = (if fetches > 0.0 then takes /. fetches else 0.0);
  }

let study ?(mode = General) p =
  let elaborated = Elaborate.elaborate (archi ~mode ~monitors:true p) in
  (* Reduced-capacity functional model: weak-bisimulation saturation is
     quadratic in the state count, and the noninterference verdict does not
     depend on buffer capacities. *)
  let functional =
    (Elaborate.elaborate
       (archi ~mode:Markovian ~monitors:false
          { p with ap_buffer_size = 2; client_buffer_size = 2 }))
      .Elaborate.spec
  in
  {
    Pipeline.study_name = "streaming";
    spec = elaborated.Elaborate.spec;
    functional_spec = Some functional;
    high = high_actions;
    low = low_actions;
    measures = measures p;
    general_timings =
      (match mode with
      | Markovian -> []
      | General -> elaborated.Elaborate.general_timings);
  }
