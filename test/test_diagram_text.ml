module D = Uml.Diagram_text
module A = Uml.Activity

let pda_text =
  {|
    % the Section 5 scenario in the plain-text notation
    activity PDA {
      initial start;
      action download "download file";
      action detect "detect weak signal";
      action search "search for other transmitters";
      action handover move;
      decision d;
      action abort "abort download";
      action continue_dl "continue download";
      final stop;

      edge start -> download -> detect -> search -> handover -> d;
      d -> abort -> stop;
      d -> continue_dl -> stop;

      object ua : UserAgent;
      occ o1 = ua @ transmitter_1 "initial";
      occ o2 = ua @ transmitter_2 "after";

      o1 -> download;
      o1 -> detect;
      o1 -> search;
      o1 -> handover;
      handover -> o2;
      o2 -> abort;
      o2 -> continue_dl;
    }

    statechart Client {
      initial GenerateRequest;
      state GenerateRequest;
      state WaitForResponse;
      state ProcessResponse;
      GenerateRequest -> WaitForResponse : request @ 1.0;
      WaitForResponse -> ProcessResponse : response;
      ProcessResponse -> GenerateRequest : offlineprocessing @ 2.0;
    }
  |}

let test_parse_document () =
  let activities, charts = D.parse pda_text in
  Alcotest.(check int) "one activity" 1 (List.length activities);
  Alcotest.(check int) "one chart" 1 (List.length charts);
  let d = List.hd activities in
  Alcotest.(check string) "diagram name" "PDA" d.A.diagram_name;
  Alcotest.(check int) "nodes" 9 (List.length d.A.nodes);
  Alcotest.(check int) "edges" 9 (List.length d.A.edges);
  Alcotest.(check int) "flows" 7 (List.length d.A.flows);
  Alcotest.(check (list string)) "locations" [ "transmitter_1"; "transmitter_2" ]
    (A.locations d);
  (match A.find_node (A.index d) "handover" with
  | Some { A.kind = A.Action { move = true; name }; _ } ->
      Alcotest.(check string) "name defaults to id" "handover" name
  | _ -> Alcotest.fail "handover should be a move action");
  let chart = List.hd charts in
  Alcotest.(check (list string)) "chart alphabet"
    [ "offlineprocessing"; "request"; "response" ]
    (Uml.Statechart.alphabet chart);
  Alcotest.(check bool) "unrated transition stays unrated" true
    (List.exists
       (fun (t : Uml.Statechart.transition) -> t.Uml.Statechart.rate = None)
       chart.Uml.Statechart.transitions)

let test_parsed_diagram_analyses () =
  (* The text form of the PDA scenario extracts and solves like the
     builder form. *)
  let activities, _ = D.parse pda_text in
  let ex = Extract.Ad_to_pepanet.extract ~rates:Scenarios.Pda.rates (List.hd activities) in
  let analysis = Choreographer.Workbench.analyse_net ~name:"pda" ex.Extract.Ad_to_pepanet.net in
  let t name =
    Option.get
      (Choreographer.Results.throughput analysis.Choreographer.Workbench.net_results name)
  in
  let cycle = 0.5 +. 0.1 +. 0.2 +. 2.0 +. 0.125 +. 1.0 in
  Alcotest.check (Alcotest.float 1e-9) "same throughput as the builder form" (1.0 /. cycle)
    (t "handover")

let test_print_parse_fixpoint () =
  let activities, charts = D.parse pda_text in
  let printed = D.document_to_string activities charts in
  let activities2, charts2 = D.parse printed in
  let printed2 = D.document_to_string activities2 charts2 in
  Alcotest.(check string) "printing reaches a fixpoint" printed printed2;
  Alcotest.(check int) "same structure" (List.length (List.hd activities).A.flows)
    (List.length (List.hd activities2).A.flows)

let test_builder_models_print () =
  (* Builder-produced scenario diagrams print and reparse. *)
  List.iter
    (fun d ->
      let printed = D.activity_to_string d in
      let activities, _ = D.parse printed in
      let d2 = List.hd activities in
      Alcotest.(check int) (d.A.diagram_name ^ " nodes") (List.length d.A.nodes)
        (List.length d2.A.nodes);
      Alcotest.(check int) (d.A.diagram_name ^ " flows") (List.length d.A.flows)
        (List.length d2.A.flows);
      Alcotest.(check (list string)) (d.A.diagram_name ^ " locations") (A.locations d)
        (A.locations d2))
    [ Scenarios.Pda.diagram (); Scenarios.Instant_message.diagram () ];
  let chart_text = D.statechart_to_string (Scenarios.Tomcat.server_jsp ()) in
  let _, charts = D.parse chart_text in
  Alcotest.(check (list string)) "chart states survive"
    (Uml.Statechart.state_names (Scenarios.Tomcat.server_jsp ()))
    (Uml.Statechart.state_names (List.hd charts))

let test_errors () =
  let reject msg src =
    match D.parse src with
    | exception D.Parse_error _ -> ()
    | _ -> Alcotest.failf "%s: accepted" msg
  in
  reject "unknown node in edge" "activity A { initial i; i -> nowhere; }";
  reject "two occurrences linked"
    "activity A { initial i; action a; object x : T; occ o1 = x; occ o2 = x; o1 -> o2; i -> a; o1 -> a; }";
  reject "duplicate node" "activity A { initial i; initial i; }";
  reject "undeclared object" "activity A { initial i; occ o = ghost; }";
  reject "unterminated string" "activity A { action a \"oops; }";
  reject "missing brace" "activity A { initial i;";
  reject "statechart bad rate" "statechart C { state S; S -> S : go @ fast; }";
  reject "no initial node"
    "activity A { action a; final f; a -> f; object x : T; occ o = x; o -> a; }";
  let line_reported =
    match D.parse "activity A {\n  initial i;\n  ??? }" with
    | exception D.Parse_error { line; _ } -> line = 3
    | _ -> false
  in
  Alcotest.(check bool) "line numbers" true line_reported

let test_interaction_blocks () =
  let src =
    {|
      interaction Calls {
        alice -> bob : sync;
        bob -> carol : notify;
      }
    |}
  in
  let activities, charts, interactions = D.parse_document src in
  Alcotest.(check int) "no diagrams" 0 (List.length activities + List.length charts);
  (match interactions with
  | [ i ] ->
      Alcotest.(check string) "name" "Calls" i.Uml.Interaction.interaction_name;
      Alcotest.(check int) "messages" 2 (List.length i.Uml.Interaction.messages);
      Alcotest.(check (list string)) "participants" [ "alice"; "bob"; "carol" ]
        (Uml.Interaction.participants i)
  | _ -> Alcotest.fail "expected one interaction");
  (* print/parse fixpoint including interactions *)
  let printed = D.document_to_string ~interactions [] [] in
  let _, _, reread = D.parse_document printed in
  Alcotest.(check bool) "interaction round trip" true (reread = interactions);
  (* empty interaction rejected *)
  match D.parse_document "interaction Empty { }" with
  | exception D.Parse_error _ -> ()
  | _ -> Alcotest.fail "empty interaction accepted"

let suite =
  [
    Alcotest.test_case "parse a document" `Quick test_parse_document;
    Alcotest.test_case "parsed diagrams analyse" `Quick test_parsed_diagram_analyses;
    Alcotest.test_case "print/parse fixpoint" `Quick test_print_parse_fixpoint;
    Alcotest.test_case "builder diagrams print" `Quick test_builder_models_print;
    Alcotest.test_case "errors" `Quick test_errors;
    Alcotest.test_case "interaction blocks" `Quick test_interaction_blocks;
  ]
