(* Beyond steady state: transient and first-passage questions that a DPM
   designer asks, answered on the rpc Markovian model.

   - How long until the server first goes to sleep, as a function of the
     DPM shutdown timeout? (mean first-passage time into the sleeping
     state, targeted through its monitor action)
   - How likely is the server to be asleep t milliseconds after a cold
     start? (uniformization-based transient solution)

   Run with: dune exec examples/first_passage.exe *)

module Lts = Dpma_lts.Lts
module Ctmc = Dpma_ctmc.Ctmc
module Rpc = Dpma_models.Rpc
module Elaborate = Dpma_adl.Elaborate

let ctmc_for shutdown_mean =
  let el =
    Rpc.elaborate ~mode:Rpc.Markovian ~monitors:true
      { Rpc.default_params with shutdown_mean }
  in
  Ctmc.of_lts (Lts.of_spec el.Elaborate.spec)

let sleeping ctmc s = Ctmc.enables_action ctmc s "S.monitor_sleeping_server"

let () =
  Format.printf "=== Mean time until the server first sleeps ===@.@.";
  Format.printf "%-18s %s@." "shutdown timeout" "E[first sleep] (ms)";
  List.iter
    (fun timeout ->
      let ctmc = ctmc_for timeout in
      let t = Ctmc.mean_time_to ctmc ~target:(sleeping ctmc) in
      Format.printf "%-18.1f %.2f@." timeout t)
    [ 0.5; 2.0; 5.0; 10.0; 25.0 ];

  Format.printf
    "@.(The server can only be shut down while idle, so even a zero timeout \
     waits out@.the residual service round; reachability is certain:@.";
  let ctmc = ctmc_for 5.0 in
  Format.printf " P(ever sleeping) = %.4f)@.@."
    (Ctmc.reachability_probability ctmc ~target:(sleeping ctmc));

  Format.printf "=== P(server asleep at time t), shutdown timeout 5 ms ===@.@.";
  Format.printf "%-10s %s@." "t (ms)" "P(sleeping)";
  List.iter
    (fun t ->
      let p =
        Ctmc.transient_reward ctmc t (fun s -> if sleeping ctmc s then 1.0 else 0.0)
      in
      Format.printf "%-10.0f %.4f@." t p)
    [ 1.0; 5.0; 10.0; 20.0; 50.0; 100.0; 500.0 ];
  let pi = Ctmc.steady_state ctmc in
  Format.printf "%-10s %.4f@." "infinity"
    (Ctmc.state_reward ctmc pi (fun s -> if sleeping ctmc s then 1.0 else 0.0))
