(* Edge cases cutting across modules: file round trips, degenerate
   models, passive firing labels, density/CDF consistency. *)

module X = Xml_kit.Minixml

let close = Alcotest.float 1e-9

let test_xml_file_io () =
  let path = Filename.temp_file "minixml" ".xml" in
  let doc = X.Element ("root", [ ("k", "v") ], [ X.Pi ("proc", "inst"); X.Element ("c", [], []) ]) in
  X.write_file path doc;
  let reread = X.parse_file path in
  Alcotest.(check bool) "file round trip" true (X.equal doc reread);
  (match reread with
  | X.Element (_, _, kids) ->
      Alcotest.(check bool) "PI preserved" true
        (List.exists (function X.Pi ("proc", "inst") -> true | _ -> false) kids)
  | _ -> Alcotest.fail "unexpected shape");
  Sys.remove path

let test_single_state_model () =
  let space = Pepa.Statespace.of_string "P = (a, 1.0).P;" in
  Alcotest.(check int) "one state" 1 (Pepa.Statespace.n_states space);
  let pi = Pepa.Statespace.steady_state space in
  Alcotest.check close "trivial distribution" 1.0 pi.(0);
  Alcotest.check close "self-loop throughput" 1.0 (Pepa.Statespace.throughput space pi "a")

let test_stop_model () =
  let space = Pepa.Statespace.of_string "P = Stop; system P;" in
  Alcotest.(check int) "one dead state" 1 (Pepa.Statespace.n_states space);
  Alcotest.(check (list int)) "dead" [ 0 ] (Markov.Lts.deadlocks (Pepa.Statespace.lts space))

let test_analysis_negative_cases () =
  let space = Pepa.Statespace.of_string "P = (a, 1.0).(b, 1.0).P;" in
  Alcotest.(check bool) "unreachable action" false (Pepa.Analysis.reachable_action space "zz");
  Alcotest.(check bool) "eventually_reaches false for unknown" false
    (Pepa.Analysis.eventually_reaches space ~from:0 "zz");
  Alcotest.(check (list int)) "no state enables unknown" []
    (Pepa.Analysis.states_enabling space "zz")

let test_passive_firing_label () =
  (* A net transition labelled passive inherits the token's rate. *)
  let src =
    {|
      A = (go, 3.0).Done;
      Done = (rest, 1.0).Done;
      token A;
      place P = A[A];
      place Q = A[_];
      trans t = (go, infty) from P to Q;
    |}
  in
  let compiled = Pepanet.Net_compile.of_string src in
  let m0 = Pepanet.Marking.initial compiled in
  (match Pepanet.Net_semantics.firings compiled m0 with
  | [ move ] ->
      Alcotest.check close "rate from the token" 3.0
        (Pepa.Rate.value_exn move.Pepanet.Net_semantics.rate)
  | moves -> Alcotest.failf "expected one firing, got %d" (List.length moves));
  (* Both passive: no rate anywhere -> state-space failure. *)
  let both =
    {|
      A = (go, infty).Done;
      Done = (rest, 1.0).Done;
      token A;
      place P = A[A];
      place Q = A[_];
      trans t = (go, infty) from P to Q;
    |}
  in
  match Pepanet.Net_statespace.of_string both with
  | exception Pepanet.Net_statespace.Passive_firing _ -> ()
  | _ -> Alcotest.fail "fully passive firing accepted"

let test_statechart_self_loop () =
  let chart =
    Uml.Statechart.make ~name:"Beeper" ~states:[ "On" ]
      ~transitions:[ ("On", "On", "beep", Some 5.0) ]
      ()
  in
  let ex = Extract.Sc_to_pepa.extract [ chart ] in
  let analysis = Choreographer.Workbench.analyse_pepa ex.Extract.Sc_to_pepa.model in
  Alcotest.check close "self-loop throughput" 5.0
    (Option.get (Choreographer.Results.throughput analysis.Choreographer.Workbench.results "beep"))

let test_terminal_chart_state () =
  (* A state with no outgoing transitions maps to Stop: the composed
     model ends in an absorbing state; the direct solver handles it. *)
  let chart =
    Uml.Statechart.make ~name:"Oneshot" ~states:[ "Start"; "Finished" ]
      ~transitions:[ ("Start", "Finished", "fire", Some 2.0) ]
      ()
  in
  let ex = Extract.Sc_to_pepa.extract [ chart ] in
  let analysis = Choreographer.Workbench.analyse_pepa ex.Extract.Sc_to_pepa.model in
  let probabilities = Choreographer.Workbench.local_probabilities analysis ~leaf:0 in
  Alcotest.check close "all mass absorbed" 1.0 (List.assoc "Oneshot_Finished" probabilities)

let test_density_consistent_with_cdf () =
  let c = Markov.Ctmc.of_transitions ~n:2 [ (0, 1, 2.0) ] in
  let sources = [ (0, 1.0) ] and targets = [ 1 ] in
  let times = List.init 41 (fun i -> float_of_int i *. 0.05) in
  let density = Markov.Passage.density c ~sources ~targets ~times in
  (* Integrating the finite-difference density recovers the CDF change. *)
  let integral = List.fold_left (fun acc (_, d) -> acc +. (d *. 0.05)) 0.0 density in
  let expected =
    Markov.Passage.cdf c ~sources ~targets ~t:2.0 -. Markov.Passage.cdf c ~sources ~targets ~t:0.0
  in
  Alcotest.(check bool) "integral matches CDF" true (abs_float (integral -. expected) < 1e-6)

let test_mdr_export_stable () =
  let doc = Uml.Xmi_write.activity_to_xml (Scenarios.Pda.diagram ()) in
  let repo = Uml.Mdr.create () in
  Uml.Mdr.import_xmi repo doc;
  let exported = Uml.Mdr.export_xmi repo in
  (* import the export into a second repository: fixpoint *)
  let repo2 = Uml.Mdr.create () in
  Uml.Mdr.import_xmi repo2 exported;
  Alcotest.(check bool) "export o import is a fixpoint" true
    (X.equal exported (Uml.Mdr.export_xmi repo2))

let test_results_pp () =
  let results =
    Choreographer.Results.make ~source:"demo" ~kind:Choreographer.Results.Pepa_model ~n_states:4
      ~n_transitions:6 ~throughputs:[ ("a", 1.5) ] ~state_probabilities:[ ("S", 0.25) ]
      ~warnings:[ "w" ] ()
  in
  let text = Format.asprintf "%a" Choreographer.Results.pp results in
  let contains needle =
    let n = String.length needle and h = String.length text in
    let rec scan i = i + n <= h && (String.sub text i n = needle || scan (i + 1)) in
    scan 0
  in
  Alcotest.(check bool) "shows source" true (contains "demo");
  Alcotest.(check bool) "shows throughput" true (contains "a");
  Alcotest.(check bool) "shows warnings" true (contains "warning: w")

let test_diagram_text_fork_join () =
  let src =
    {|
      activity F {
        initial i;
        fork f;
        action left;
        action right;
        join j;
        final z;
        edge i -> f;
        f -> left -> j;
        f -> right -> j;
        j -> z;
        object a : T;
        object b : T;
        occ oa = a;
        occ ob = b;
        oa -> left;
        ob -> right;
      }
    |}
  in
  let activities, _ = Uml.Diagram_text.parse src in
  let d = List.hd activities in
  Alcotest.(check int) "fork parsed" 1
    (List.length
       (List.filter (fun (n : Uml.Activity.node) -> n.Uml.Activity.kind = Uml.Activity.Fork)
          d.Uml.Activity.nodes));
  (* extraction works: both objects run their branch *)
  let ex = Extract.Ad_to_pepanet.extract d in
  let analysis = Choreographer.Workbench.analyse_net ex.Extract.Ad_to_pepanet.net in
  Alcotest.(check bool) "both branches measurable" true
    (Choreographer.Results.throughput analysis.Choreographer.Workbench.net_results "left"
     <> None)

let suite =
  [
    Alcotest.test_case "xml file io and PIs" `Quick test_xml_file_io;
    Alcotest.test_case "single-state model" `Quick test_single_state_model;
    Alcotest.test_case "stop model" `Quick test_stop_model;
    Alcotest.test_case "analysis negatives" `Quick test_analysis_negative_cases;
    Alcotest.test_case "passive firing labels" `Quick test_passive_firing_label;
    Alcotest.test_case "statechart self-loop" `Quick test_statechart_self_loop;
    Alcotest.test_case "terminal chart state" `Quick test_terminal_chart_state;
    Alcotest.test_case "density integrates to the CDF" `Quick test_density_consistent_with_cdf;
    Alcotest.test_case "mdr export fixpoint" `Quick test_mdr_export_stable;
    Alcotest.test_case "results pretty-printing" `Quick test_results_pp;
    Alcotest.test_case "fork/join through the text notation" `Quick test_diagram_text_fork_join;
  ]
