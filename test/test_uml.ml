module A = Uml.Activity
module B = A.Build
module SC = Uml.Statechart

let tiny_diagram () =
  let b = B.create "tiny" in
  let i = B.initial b in
  let act = B.action b "work" in
  let fin = B.final b in
  B.edge b i act;
  B.edge b act fin;
  let o = B.occurrence ~loc:"here" b ~obj:"x" ~cls:"Thing" in
  B.flow_into b ~occ:o ~activity:act;
  B.finish b

let test_builder () =
  let d = tiny_diagram () in
  Alcotest.(check int) "nodes" 3 (List.length d.A.nodes);
  Alcotest.(check int) "edges" 2 (List.length d.A.edges);
  Alcotest.(check (list string)) "objects" [ "x" ] (A.object_names d);
  Alcotest.(check (list string)) "locations" [ "here" ] (A.locations d);
  Alcotest.(check bool) "initial found" true ((A.initial_node d).A.kind = A.Initial);
  Alcotest.(check int) "actions of object" 1 (List.length (A.actions_of_object (A.index d) "x"))

let test_graph_queries () =
  let d = tiny_diagram () in
  let act = (List.hd (A.action_nodes d)).A.node_id in
  let init = (A.initial_node d).A.node_id in
  let ix = A.index d in
  Alcotest.(check (list string)) "successors" [ act ] (A.successors ix init);
  Alcotest.(check (list string)) "predecessors" [ init ] (A.predecessors ix act);
  Alcotest.(check int) "objects into act" 1 (List.length (A.objects_of_activity ix act A.Into));
  Alcotest.(check int) "objects out of act" 0 (List.length (A.objects_of_activity ix act A.Out_of))

let test_annotations () =
  let d = tiny_diagram () in
  let act = (List.hd (A.action_nodes d)).A.node_id in
  let d = A.annotate d ~node_id:act ~tag:"throughput" ~value:"1.5" in
  Alcotest.(check (option string)) "annotation read back" (Some "1.5")
    (A.annotation d ~node_id:act ~tag:"throughput");
  let d = A.annotate d ~node_id:act ~tag:"throughput" ~value:"2.0" in
  Alcotest.(check (option string)) "annotation replaced" (Some "2.0")
    (A.annotation d ~node_id:act ~tag:"throughput");
  Alcotest.(check (option string)) "missing tag" None (A.annotation d ~node_id:act ~tag:"x")

let expect_invalid build =
  match A.validate (build ()) with
  | exception A.Invalid_diagram _ -> ()
  | _ -> Alcotest.fail "invalid diagram accepted"

let test_validation () =
  let base = tiny_diagram () in
  expect_invalid (fun () -> { base with A.nodes = List.tl base.A.nodes }) (* no initial *);
  expect_invalid (fun () ->
      { base with A.edges = { A.edge_id = "bogus"; source = "nope"; target = "n1" } :: base.A.edges });
  expect_invalid (fun () ->
      {
        base with
        A.flows =
          [ { A.flow_id = "f9"; occurrence = "missing"; activity = "n2"; direction = A.Into } ];
      });
  expect_invalid (fun () -> { base with A.nodes = base.A.nodes @ base.A.nodes }) (* dup ids *);
  (* flows must attach to action states *)
  expect_invalid (fun () ->
      let occ = List.hd base.A.occurrences in
      {
        base with
        A.flows =
          [
            {
              A.flow_id = "f9";
              occurrence = occ.A.occ_id;
              activity = (A.initial_node base).A.node_id;
              direction = A.Into;
            };
          ];
      })

let test_statechart_make () =
  let c =
    SC.make ~name:"Client"
      ~states:[ "A"; "B" ]
      ~transitions:[ ("A", "B", "go", Some 1.0); ("B", "A", "ret", None) ]
      ()
  in
  Alcotest.(check (list string)) "states" [ "A"; "B" ] (SC.state_names c);
  Alcotest.(check (list string)) "alphabet sorted" [ "go"; "ret" ] (SC.alphabet c);
  Alcotest.(check bool) "initial defaults to first" true
    (c.SC.initial = (List.hd c.SC.states).SC.state_id);
  let c2 =
    SC.make ~name:"C2" ~states:[ "A"; "B" ] ~transitions:[ ("A", "B", "go", None) ]
      ~initial:"B" ()
  in
  Alcotest.(check bool) "explicit initial" true
    (match SC.find_state_by_name c2 "B" with
    | Some s -> c2.SC.initial = s.SC.state_id
    | None -> false);
  (match SC.make ~name:"X" ~states:[ "A" ] ~transitions:[ ("A", "Zed", "go", None) ] () with
  | exception SC.Invalid_chart _ -> ()
  | _ -> Alcotest.fail "unknown target accepted");
  (match SC.make ~name:"X" ~states:[ "A"; "A" ] ~transitions:[] () with
  | exception SC.Invalid_chart _ -> ()
  | _ -> Alcotest.fail "duplicate state accepted");
  let c3 = SC.annotate c ~state_id:(List.hd c.SC.states).SC.state_id ~tag:"p" ~value:"0.5" in
  Alcotest.(check (option string)) "chart annotation" (Some "0.5")
    (SC.annotation c3 ~state_id:(List.hd c.SC.states).SC.state_id ~tag:"p")

let test_rates_file () =
  let r = Uml.Rates_file.of_string "a = 2.0\n% comment\nb=3 % inline\n\ndefault = 9\n" in
  Alcotest.(check (option (float 0.0))) "binding" (Some 2.0) (Uml.Rates_file.rate_opt r "a");
  Alcotest.(check (float 0.0)) "inline comment" 3.0 (Uml.Rates_file.rate r "b");
  Alcotest.(check (float 0.0)) "default" 9.0 (Uml.Rates_file.rate r "missing");
  Alcotest.(check (float 0.0)) "empty default is 1" 1.0 (Uml.Rates_file.rate Uml.Rates_file.empty "x");
  let r2 = Uml.Rates_file.add r "a" 5.0 in
  Alcotest.(check (float 0.0)) "add replaces" 5.0 (Uml.Rates_file.rate r2 "a");
  let r3 = Uml.Rates_file.with_default r 0.25 in
  Alcotest.(check (float 0.0)) "with_default" 0.25 (Uml.Rates_file.rate r3 "zzz");
  (* round trip *)
  let printed = Uml.Rates_file.to_string r in
  let reread = Uml.Rates_file.of_string printed in
  Alcotest.(check (float 0.0)) "round trip binding" 2.0 (Uml.Rates_file.rate reread "a");
  Alcotest.(check (float 0.0)) "round trip default" 9.0 (Uml.Rates_file.rate reread "qq");
  let reject src =
    match Uml.Rates_file.of_string src with
    | exception Uml.Rates_file.Syntax_error _ -> ()
    | _ -> Alcotest.failf "accepted %S" src
  in
  reject "nonsense line";
  reject "a = -1";
  reject "a = abc";
  reject " = 2"

let suite =
  [
    Alcotest.test_case "activity builder" `Quick test_builder;
    Alcotest.test_case "graph queries" `Quick test_graph_queries;
    Alcotest.test_case "annotations" `Quick test_annotations;
    Alcotest.test_case "validation" `Quick test_validation;
    Alcotest.test_case "statecharts" `Quick test_statechart_make;
    Alcotest.test_case "rates files" `Quick test_rates_file;
  ]
