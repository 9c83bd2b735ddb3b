module Ast = Dpma_adl.Ast
module Elaborate = Dpma_adl.Elaborate
module Lts = Dpma_lts.Lts
module Ctmc = Dpma_ctmc.Ctmc
module Markov = Dpma_core.Markov
module Pool = Dpma_util.Pool

type params = {
  rpc : Rpc.params;
  capacity : int;
  quantum_rate : float;
}

let default_params =
  { rpc = Rpc.default_params; capacity = 40; quantum_rate = 1.0 }

let empty_monitor = "BAT.monitor_battery_empty"

(* Power draw of each server state, as in the paper's energy reward
   structure (sleeping draws nothing; Responding is vanishing). *)
let power_of_equation = function
  | "Idle_Server" -> Some 2.0
  | "Busy_Server" -> Some 3.0
  | "Awaking_Server" -> Some 2.0
  | "Sleeping_Server" | "Responding_Server" -> None
  | _ -> None

let archi ?policy p =
  if p.capacity < 1 then invalid_arg "Battery.archi: capacity must be positive";
  if p.quantum_rate <= 0.0 then
    invalid_arg "Battery.archi: quantum rate must be positive";
  let base = Rpc.archi ~mode:Rpc.Markovian ~monitors:true ?policy p.rpc in
  (* Inject a power-emission branch into each powered server state. *)
  let add_draw (eq : Ast.equation) =
    match power_of_equation eq.Ast.eq_name with
    | None -> eq
    | Some power ->
        let branch =
          Ast.Prefix
            ( "draw_power",
              Ast.Exp (power *. p.quantum_rate),
              Ast.Call (eq.Ast.eq_name, []) )
        in
        let body =
          match eq.Ast.eq_body with
          | Ast.Choice ts -> Ast.Choice (ts @ [ branch ])
          | t -> Ast.Choice [ t; branch ]
        in
        { eq with Ast.eq_body = body }
  in
  let elem_types =
    List.map
      (fun (et : Ast.elem_type) ->
        if String.equal et.Ast.et_name "Server_Type" then
          {
            et with
            Ast.equations = List.map add_draw et.Ast.equations;
            outputs = et.Ast.outputs @ [ "draw_power" ];
          }
        else et)
      base.Ast.elem_types
  in
  (* The battery: a parameterized countdown; once empty it keeps absorbing
     quanta (the device browns out) and exposes a monitor self-loop so the
     empty condition is targetable by first-passage queries. *)
  let int_param name = { Ast.p_name = name; p_type = Ast.TInt } in
  let battery =
    {
      Ast.et_name = "Battery_Type";
      et_consts = [ int_param "capacity" ];
      equations =
        [
          {
            Ast.eq_name = "Battery_Start";
            eq_params = [];
            eq_body = Ast.Call ("Battery", [ Ast.Var "capacity" ]);
          };
          {
            Ast.eq_name = "Battery";
            eq_params = [ int_param "level" ];
            eq_body =
              Ast.Choice
                [
                  Ast.Guard
                    ( Ast.Binop (Ast.Gt, Ast.Var "level", Ast.Int 0),
                      Ast.Prefix
                        ( "discharge",
                          Ast.Passive 1.0,
                          Ast.Call
                            ( "Battery",
                              [ Ast.Binop (Ast.Sub, Ast.Var "level", Ast.Int 1) ]
                            ) ) );
                  Ast.Guard
                    ( Ast.Binop (Ast.Eq, Ast.Var "level", Ast.Int 0),
                      Ast.Choice
                        [
                          Ast.Prefix
                            ( "discharge",
                              Ast.Passive 1.0,
                              Ast.Call ("Battery", [ Ast.Int 0 ]) );
                          Ast.Prefix
                            ( "monitor_battery_empty",
                              Ast.Exp 1e-4,
                              Ast.Call ("Battery", [ Ast.Int 0 ]) );
                        ] );
                ];
          };
        ];
      inputs = [ "discharge" ];
      outputs = [];
    }
  in
  {
    Ast.name = base.Ast.name ^ "_BATTERY";
    features = base.Ast.features;
    elem_types = elem_types @ [ battery ];
    instances =
      base.Ast.instances
      @ [
          {
            Ast.inst_name = "BAT";
            inst_type = "Battery_Type";
            inst_args = [ Ast.Int p.capacity ];
          };
        ];
    attachments =
      base.Ast.attachments
      @ [
          {
            Ast.from_inst = "S";
            from_port = "draw_power";
            to_inst = "BAT";
            to_port = "discharge";
          };
        ];
  }

type lifetime = { with_dpm : float; without_dpm : float; extension : float }

let lifetime_of_lts lts =
  let ctmc = Ctmc.of_lts lts in
  Ctmc.mean_time_to ctmc ~target:(fun s ->
      Ctmc.enables_action ctmc s empty_monitor)

let expected_lifetime ?policy p =
  let el = Elaborate.elaborate (archi ?policy p) in
  let lts = Lts.of_spec el.Elaborate.spec in
  let with_dpm = lifetime_of_lts lts in
  let without_dpm =
    lifetime_of_lts (Markov.without_dpm lts ~high:Rpc.high_actions)
  in
  { with_dpm; without_dpm; extension = (with_dpm /. without_dpm) -. 1.0 }

let lifetime_sweep ?policy ?jobs p ~timeouts =
  (* Sweep-level cache: restricting the DPM commands removes the only
     transitions whose rate carries the shutdown timeout, so the DPM-less
     lifetime is the same at every sweep point — solve that chain once and
     share it, then solve the with-DPM chains in parallel. *)
  let without_dpm =
    let el = Elaborate.elaborate (archi ?policy p) in
    let lts = Lts.of_spec el.Elaborate.spec in
    lifetime_of_lts (Markov.without_dpm lts ~high:Rpc.high_actions)
  in
  (* The sweep points differ only in the DPM timeout rate: build the
     featured union once, project each point's LTS, and solve the
     first-passage problems in parallel. *)
  let specs =
    Array.of_list
      (List.map
         (fun timeout ->
           (Elaborate.elaborate
              (archi ?policy
                 { p with rpc = { p.rpc with Rpc.shutdown_mean = timeout } }))
             .Elaborate.spec)
         timeouts)
  in
  let ltss = (Markov.family ?jobs specs).Markov.members in
  Pool.parallel_map ?jobs
    (fun (i, timeout) ->
      let with_dpm = lifetime_of_lts ltss.(i) in
      ( timeout,
        { with_dpm; without_dpm; extension = (with_dpm /. without_dpm) -. 1.0 } ))
    (List.mapi (fun i t -> (i, t)) timeouts)
