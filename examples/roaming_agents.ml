(* Mobile agents patrolling a ring of hosts — the class of application
   the paper's introduction motivates ("a mobile software agent moving
   from one network host to another").

     dune exec examples/roaming_agents.exe

   Two agent tokens share three places; every place hosts a static
   monitor that the agents probe; hops are net-level firings.  Besides
   steady-state measures, the example computes first-passage times (how
   long until an agent first reaches the far host), the response-time
   style of analysis the paper attributes to ipc. *)

let () =
  print_string (Choreographer.Report.section "The net");
  print_string Scenarios.Roaming.pepanet_source;
  print_newline ();

  let space = Scenarios.Roaming.space () in
  Format.printf "%a@.@." Pepanet.Net_statespace.pp_summary space;

  print_string (Choreographer.Report.section "Steady-state measures");
  let throughputs, locations, occupancy = Scenarios.Roaming.patrol_report () in
  List.iter (fun (a, v) -> Printf.printf "  throughput(%s) = %.6f\n" a v) throughputs;
  List.iter (fun (p, v) -> Printf.printf "  P(agent#1 at %s) = %.6f\n" p v) locations;
  List.iter (fun (p, v) -> Printf.printf "  E[agents at %s] = %.6f\n" p v) occupancy;
  print_newline ();

  print_string (Choreographer.Report.section "First-passage times (ipc-style analysis)");
  List.iter
    (fun place ->
      Printf.printf "  mean time for agent#1 to first reach %s: %.4f\n" place
        (Scenarios.Roaming.time_to_reach ~place ~token:0))
    [ "HostB"; "HostC" ];
  (* CDF of the passage to HostC. *)
  let compiled = Pepanet.Net_statespace.compiled space in
  let host_c = Pepanet.Net_compile.place_index compiled "HostC" in
  let targets =
    List.filter
      (fun i ->
        Pepanet.Marking.token_place compiled (Pepanet.Net_statespace.marking space i) 0
        = Some host_c)
      (List.init (Pepanet.Net_statespace.n_markings space) Fun.id)
  in
  let chain = Markov.Lts.ctmc (Pepanet.Net_statespace.lts space) in
  let sources = [ (Pepanet.Net_statespace.initial_index space, 1.0) ] in
  List.iter
    (fun (t, p) -> Printf.printf "  P(reached HostC by %4.1f s) = %.4f\n" t p)
    (Markov.Passage.cdf_curve chain ~sources ~targets ~times:[ 1.0; 2.0; 4.0; 8.0; 16.0 ]);
  Printf.printf "  median: %.4f s\n"
    (Markov.Passage.quantile chain ~sources ~targets ~p:0.5 ~epsilon:1e-4)
