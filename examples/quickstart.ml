(* Quickstart: the fastest route from a PEPA model to performance
   numbers, and from a PEPA net to mobility-aware numbers.

     dune exec examples/quickstart.exe

   Part 1 solves a two-component PEPA model directly.  Part 2 solves a
   two-place PEPA net in which a token is moved by a firing.  Part 3
   shows the one-call Workbench API that the Choreographer pipeline uses
   internally. *)

let part_1_plain_pepa () =
  print_string (Choreographer.Report.section "Part 1: a PEPA model");
  (* A processor serving jobs handed over by a queue of two slots. *)
  let model =
    Pepa.Parser.model_of_string
      {|
        arrive = 2.0;
        serve = 3.0;
        Queue0 = (arrive, arrive).Queue1;
        Queue1 = (arrive, arrive).Queue2 + (serve, infty).Queue0;
        Queue2 = (serve, infty).Queue1;
        Cpu = (serve, serve).Cpu;
        System = Queue0 <serve> Cpu;
        system System;
      |}
  in
  let space = Pepa.Statespace.build (Pepa.Compile.of_model model) in
  Format.printf "state space: %a@." Pepa.Statespace.pp_summary space;
  let pi = Pepa.Statespace.steady_state space in
  List.iter
    (fun (action, value) -> Format.printf "  throughput(%s) = %.6f@." action value)
    (Pepa.Statespace.throughputs space pi);
  (* Utilisation of the queue positions. *)
  List.iter
    (fun label ->
      Format.printf "  P(queue = %s) = %.6f@." label
        (Pepa.Statespace.local_state_probability space pi ~leaf:0 ~label))
    [ "Queue0"; "Queue1"; "Queue2" ]

let part_2_pepa_net () =
  print_string (Choreographer.Report.section "Part 2: a PEPA net");
  let space =
    Pepanet.Net_statespace.of_string
      {|
        work = 4.0;
        go = 1.0;
        back = 2.0;
        Agent = (work, work).Ready;
        Ready = (go, go).Away;
        Away = (back, back).Agent;

        token Agent;

        place Home = Agent[Agent];
        place Abroad = Agent[_];

        trans t_go = (go, go) from Home to Abroad;
        trans t_back = (back, back) from Abroad to Home;
      |}
  in
  Format.printf "markings: %a@." Pepanet.Net_statespace.pp_summary space;
  let pi = Pepanet.Net_statespace.steady_state space in
  List.iter
    (fun (action, value) -> Format.printf "  throughput(%s) = %.6f@." action value)
    (Pepanet.Net_measures.throughputs space pi);
  List.iter
    (fun (place, p) -> Format.printf "  P(agent at %s) = %.6f@." place p)
    (Pepanet.Net_measures.token_location_probabilities space pi ~token:0)

let part_3_workbench () =
  print_string (Choreographer.Report.section "Part 3: the Workbench API");
  let analysis =
    Choreographer.Workbench.analyse_pepa ~name:"quickstart"
    @@ Choreographer.Workbench.parse_pepa ~name:"quickstart"
      {|
        think = 1.0;
        use = 5.0;
        User = (think, think).(use, use).User;
        Resource = (use, infty).Resource;
        system User <use> Resource;
      |}
  in
  Format.printf "%a@." Choreographer.Results.pp analysis.Choreographer.Workbench.results

let () =
  part_1_plain_pepa ();
  print_newline ();
  part_2_pepa_net ();
  print_newline ();
  part_3_workbench ()
