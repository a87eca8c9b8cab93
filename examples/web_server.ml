(* The paper's Section 5 client/server study (Figures 8 and 9): HTTP
   requests against a Tomcat server serving JSP pages, with and without
   the servlet-cache optimisation.

     dune exec examples/web_server.exe

   State diagrams are the UML input here, and the reflected measure is
   the steady-state probability of each state; the derived engineering
   number is the client's mean waiting delay, with and without the
   optimisation. *)

let show_study title study =
  print_string (Choreographer.Report.section title);
  let analysis = study.Scenarios.Tomcat.analysis in
  Format.printf "%a@." Choreographer.Results.pp analysis.Choreographer.Workbench.results;
  (* Steady-state probabilities per chart, the Figure 8/9 annotations. *)
  List.iter
    (fun (chart, leaf) ->
      Format.printf "%s state probabilities:@." chart;
      List.iter
        (fun (label, p) -> Format.printf "  %-28s %.6f@." label p)
        (Choreographer.Workbench.local_probabilities analysis ~leaf))
    study.Scenarios.Tomcat.extraction.Extract.Sc_to_pepa.chart_leaf;
  Format.printf "client waiting delay: %.4f s (P(wait) %.4f / throughput %.4f)@.@."
    study.Scenarios.Tomcat.waiting_delay study.Scenarios.Tomcat.waiting_probability
    study.Scenarios.Tomcat.request_throughput

let reflect_into_xmi study =
  print_string (Choreographer.Report.section "Reflection into the state diagrams");
  let charts = [ Scenarios.Tomcat.client (); Scenarios.Tomcat.server_jsp () ] in
  let probabilities =
    List.concat_map
      (fun (_, leaf) ->
        Choreographer.Workbench.local_probabilities study.Scenarios.Tomcat.analysis ~leaf)
      study.Scenarios.Tomcat.extraction.Extract.Sc_to_pepa.chart_leaf
  in
  let reflected =
    Extract.Reflector.reflect_statecharts study.Scenarios.Tomcat.extraction ~probabilities
      charts
  in
  let doc = Uml.Xmi_write.statecharts_to_xml reflected in
  let round_tripped = Uml.Xmi_read.statecharts_of_xml doc in
  List.iter
    (fun chart ->
      List.iter
        (fun (s : Uml.Statechart.state) ->
          match
            Uml.Statechart.annotation chart ~state_id:s.Uml.Statechart.state_id
              ~tag:Extract.Reflector.probability_tag
          with
          | Some v ->
              Printf.printf "  %s.%s  steadyStateProbability = %s\n"
                chart.Uml.Statechart.chart_name s.Uml.Statechart.state_name v
          | None -> ())
        chart.Uml.Statechart.states)
    round_tripped

(* Response-time distribution: the passage from issuing a request to
   receiving the response, computed on the derived CTMC (the
   passage-time analysis the paper attributes to the Imperial PEPA
   Compiler). *)
let response_time_distribution study =
  print_string (Choreographer.Report.section "Response-time distribution (passage analysis)");
  let space = study.Scenarios.Tomcat.analysis.Choreographer.Workbench.space in
  let chain = Pepa.Statespace.ctmc space in
  let lts = Pepa.Statespace.lts space in
  let entered_by name =
    Markov.Lts.targets lts (fun action -> Pepa.Action.equal action (Pepa.Action.act name))
  in
  (* states the client enters by performing request *)
  let sources = List.map (fun s -> (s, 1.0)) (entered_by "request") in
  let targets = entered_by "response" in
  Printf.printf "mean response time: %.4f s\n" (Markov.Passage.mean chain ~sources ~targets);
  List.iter
    (fun (t, p) -> Printf.printf "  P(response within %4.2f s) = %.4f\n" t p)
    (Markov.Passage.cdf_curve chain ~sources ~targets
       ~times:[ 0.25; 0.5; 1.0; 2.0; 4.0 ]);
  Printf.printf "  90th percentile: %.4f s\n\n"
    (Markov.Passage.quantile chain ~sources ~targets ~p:0.9 ~epsilon:1e-4)

let () =
  let without = Scenarios.Tomcat.study ~server:(Scenarios.Tomcat.server_jsp ()) in
  let with_opt = Scenarios.Tomcat.study ~server:(Scenarios.Tomcat.server_cached ()) in
  show_study "Without the servlet cache (Figure 9 as drawn)" without;
  show_study "With direct servlet lookup (the Tomcat optimisation)" with_opt;
  Printf.printf "the optimisation reduces the client's waiting delay %.1f-fold\n\n"
    (without.Scenarios.Tomcat.waiting_delay /. with_opt.Scenarios.Tomcat.waiting_delay);
  response_time_distribution without;
  reflect_into_xmi without
