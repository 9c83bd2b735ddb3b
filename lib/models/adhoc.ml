module Ast = Dpma_adl.Ast
module Elaborate = Dpma_adl.Elaborate

type params = {
  nodes : int;
  queue_size : int;
  head_queue_size : int option;
  gen_mean : float;
  nic_awake_mean : float;
  check_mean : float;
  shutdown_mean : float;
  awake_period_mean : float;
  power_awake : float;
  power_doze : float;
  energy_tx : float;
  energy_rx : float;
  monitor_rate : float;
}

let default_params =
  {
    nodes = 3;
    queue_size = 2;
    head_queue_size = None;
    gen_mean = 67.0;
    nic_awake_mean = 15.0;
    check_mean = 5.0;
    shutdown_mean = 5.0;
    awake_period_mean = 100.0;
    power_awake = 1.0;
    power_doze = 0.05;
    energy_tx = 0.4;
    energy_rx = 0.2;
    monitor_rate = 1e-4;
  }

let pre a r k = Ast.Prefix (a, r, k)
let alt ts = Ast.Choice ts
let goto n = Ast.Call (n, [])
let eq name body = { Ast.eq_name = name; eq_params = []; eq_body = body }
let passive = Ast.Passive 1.0
let imm ?(prio = 1) ?(weight = 1.0) () = Ast.Inf (prio, weight)
let exp_mean m = Ast.Exp (1.0 /. m)

(* The per-node element types. Each relay node is the paper's station
   pattern turned into a forwarding hop: a bounded relay queue that
   announces its buffer-empty condition, a power-manageable NIC that
   drains it one packet at a time, and a timeout DPM that shuts the NIC
   down on the empty notice and wakes it up periodically. *)
let elem_types ~monitors p =
  let monitor name target =
    if monitors then [ pre name (Ast.Exp p.monitor_rate) (goto target) ]
    else []
  in
  let int_param name = { Ast.p_name = name; p_type = Ast.TInt } in
  let v x = Ast.Var x and num n = Ast.Int n in
  let lt a b = Ast.Binop (Ast.Lt, a, b)
  and gt a b = Ast.Binop (Ast.Gt, a, b)
  and eqe a b = Ast.Binop (Ast.Eq, a, b)
  and plus a b = Ast.Binop (Ast.Add, a, b)
  and minus a b = Ast.Binop (Ast.Sub, a, b) in
  let guard e t = Ast.Guard (e, t) in
  let peq name params body =
    { Ast.eq_name = name; eq_params = params; eq_body = body }
  in
  (* Traffic source: the node whose packets the chain relays. *)
  let source =
    {
      Ast.et_name = "Source_Type";
      et_consts = [];
      equations =
        [ eq "Source" (pre "gen_packet" (exp_mean p.gen_mean) (goto "Source")) ];
      inputs = [];
      outputs = [ "gen_packet" ];
    }
  in
  (* Relay queue: a parameterized counter 0..size. Forwarding the last
     packet announces the queue-empty condition to the node's DPM;
     arrivals at a full queue are dropped. *)
  let queue =
    {
      Ast.et_name = "Relay_Queue_Type";
      et_consts = [ int_param "size" ];
      equations =
        [
          peq "Q_Start" [] (Ast.Call ("Q", [ num 0 ]));
          peq "Q"
            [ int_param "h" ]
            (alt
               [
                 guard
                   (lt (v "h") (v "size"))
                   (pre "receive_packet" passive
                      (Ast.Call ("Q", [ plus (v "h") (num 1) ])));
                 guard
                   (eqe (v "h") (v "size"))
                   (pre "receive_packet" passive
                      (pre "drop_packet" (imm ~prio:2 ())
                         (Ast.Call ("Q", [ v "size" ]))));
                 guard
                   (gt (v "h") (num 1))
                   (pre "send_to_nic" (imm ())
                      (Ast.Call ("Q", [ minus (v "h") (num 1) ])));
                 guard
                   (eqe (v "h") (num 1))
                   (pre "send_to_nic" (imm ())
                      (pre "notify_empty" (imm ~prio:2 ())
                         (Ast.Call ("Q", [ num 0 ]))));
               ]);
        ];
      inputs = [ "receive_packet" ];
      outputs = [ "send_to_nic"; "notify_empty" ];
    }
  in
  (* Relay NIC: the PSP power states of the paper's interface card. While
     dozing it accepts no packet from its queue; the DPM wakes it up on a
     timer, after which it checks the queue and resumes forwarding. *)
  let nic =
    {
      Ast.et_name = "Relay_Nic_Type";
      et_consts = [];
      equations =
        [
          eq "Nic_Awake"
            (alt
               ([
                  pre "receive_packet" passive (goto "Nic_Forwarding");
                  pre "receive_shutdown" passive (goto "Nic_Doze");
                ]
               @ monitor "monitor_nic_awake" "Nic_Awake"));
          eq "Nic_Forwarding"
            (pre "forward_packet" (imm ~prio:2 ()) (goto "Nic_Awake"));
          eq "Nic_Doze"
            (alt
               ([ pre "receive_wakeup" passive (goto "Nic_Awaking") ]
               @ monitor "monitor_nic_doze" "Nic_Doze"));
          eq "Nic_Awaking"
            (alt
               ([ pre "awake_nic" (exp_mean p.nic_awake_mean) (goto "Nic_Checking") ]
               @ monitor "monitor_nic_awaking" "Nic_Awaking"));
          eq "Nic_Checking"
            (alt
               ([ pre "check_queue" (exp_mean p.check_mean) (goto "Nic_Awake") ]
               @ monitor "monitor_nic_checking" "Nic_Checking"));
        ];
      inputs = [ "receive_packet"; "receive_shutdown"; "receive_wakeup" ];
      outputs = [ "forward_packet" ];
    }
  in
  (* Timeout DPM, one per relay node (the paper's external power
     manager): on the queue-empty notice it shuts the NIC down, then
     wakes it after the awake period. *)
  let dpm =
    {
      Ast.et_name = "Relay_Dpm_Type";
      et_consts = [];
      equations =
        [
          eq "Dpm_Watching"
            (pre "receive_empty_notice" passive (goto "Dpm_Shutting"));
          eq "Dpm_Shutting"
            (alt
               [
                 pre "send_shutdown" (exp_mean p.shutdown_mean) (goto "Dpm_Dozing");
                 pre "receive_empty_notice" passive (goto "Dpm_Shutting");
               ]);
          eq "Dpm_Dozing"
            (alt
               [
                 pre "wakeup_timer" (exp_mean p.awake_period_mean)
                   (goto "Dpm_Waking");
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
  (* Destination: always ready to take a delivered packet. *)
  let sink =
    {
      Ast.et_name = "Sink_Type";
      et_consts = [];
      equations =
        [ eq "Sink" (pre "consume_packet" passive (goto "Sink")) ];
      inputs = [ "consume_packet" ];
      outputs = [];
    }
  in
  (source, queue, nic, dpm, sink)

let attach from_inst from_port to_inst to_port =
  { Ast.from_inst; from_port; to_inst; to_port }

let sfx base i = base ^ string_of_int i

let archi ?(monitors = true) p =
  if p.nodes < 1 then invalid_arg "Adhoc.archi: nodes must be at least 1";
  if p.queue_size < 1 then
    invalid_arg "Adhoc.archi: queue_size must be at least 1";
  let head = Option.value ~default:p.queue_size p.head_queue_size in
  if head < 1 then
    invalid_arg "Adhoc.archi: head_queue_size must be at least 1";
  let source, queue, nic, dpm, sink = elem_types ~monitors p in
  let inst name ty args =
    { Ast.inst_name = name; inst_type = ty; inst_args = args }
  in
  let node_instances i =
    [
      inst (sfx "Q" i) "Relay_Queue_Type"
        [ Ast.Int (if i = 1 then head else p.queue_size) ];
      inst (sfx "NIC" i) "Relay_Nic_Type" [];
      inst (sfx "DPM" i) "Relay_Dpm_Type" [];
    ]
  in
  (* Node i receives from its upstream neighbor — the source for the
     first hop, the previous node's NIC after that — and its own DPM
     closes the local power-management loop. *)
  let node_attachments i =
    let upstream, up_port =
      if i = 1 then ("SRC", "gen_packet")
      else (sfx "NIC" (i - 1), "forward_packet")
    in
    [
      attach upstream up_port (sfx "Q" i) "receive_packet";
      attach (sfx "Q" i) "send_to_nic" (sfx "NIC" i) "receive_packet";
      attach (sfx "Q" i) "notify_empty" (sfx "DPM" i) "receive_empty_notice";
      attach (sfx "DPM" i) "send_shutdown" (sfx "NIC" i) "receive_shutdown";
      attach (sfx "DPM" i) "send_wakeup" (sfx "NIC" i) "receive_wakeup";
    ]
  in
  let node_ids = List.init p.nodes (fun k -> k + 1) in
  {
    Ast.name = "ADHOC_NET_DPM";
    features = [];
    elem_types = [ source; queue; nic; dpm; sink ];
    instances =
      (inst "SRC" "Source_Type" [] :: List.concat_map node_instances node_ids)
      @ [ inst "SINK" "Sink_Type" [] ];
    attachments =
      List.concat_map node_attachments node_ids
      @ [
          attach (sfx "NIC" p.nodes) "forward_packet" "SINK" "consume_packet";
        ];
  }

let spec ?monitors p = (Elaborate.elaborate (archi ?monitors p)).Elaborate.spec

let high_actions p =
  List.concat
    (List.init p.nodes (fun k ->
         let i = k + 1 in
         [
           Printf.sprintf "DPM%d.send_shutdown#NIC%d.receive_shutdown" i i;
           Printf.sprintf "DPM%d.send_wakeup#NIC%d.receive_wakeup" i i;
         ]))
