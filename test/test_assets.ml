(* The committed example assets stay analysable: these tests load them
   from disk exactly as the command-line tools would. *)

let asset name =
  (* Tests run in _build/default/test; the assets are declared as deps. *)
  let candidates = [ Filename.concat "../examples/assets" name; Filename.concat "examples/assets" name ] in
  match List.find_opt Sys.file_exists candidates with
  | Some path -> path
  | None -> Alcotest.failf "asset %s not found" name

let close = Alcotest.float 1e-9

let test_mm1k () =
  let analysis = Choreographer.Workbench.analyse_pepa_file (asset "mm1k.pepa") in
  let results = analysis.Choreographer.Workbench.results in
  Alcotest.(check int) "states" 4 results.Choreographer.Results.n_states;
  (* M/M/1/3 closed form: arrival throughput = l (1 - p3). *)
  let rho = 2.0 /. 3.0 in
  let z = 1.0 +. rho +. (rho ** 2.0) +. (rho ** 3.0) in
  let p3 = rho ** 3.0 /. z in
  Alcotest.check close "effective arrival rate" (2.0 *. (1.0 -. p3))
    (Option.get (Choreographer.Results.throughput results "arrive"));
  Alcotest.check close "flow balance"
    (Option.get (Choreographer.Results.throughput results "arrive"))
    (Option.get (Choreographer.Results.throughput results "serve"))

let test_instant_message_file () =
  let name = "instant_message.pepanet" in
  let analysis =
    Choreographer.Workbench.analyse_net ~name
      (Choreographer.Workbench.parse_net ~name
         (In_channel.with_open_bin (asset name) In_channel.input_all))
  in
  let results = analysis.Choreographer.Workbench.net_results in
  Alcotest.(check int) "markings" 8 results.Choreographer.Results.n_states;
  Alcotest.check close "same number as the embedded scenario" 0.385852
    (Float.round (Option.get (Choreographer.Results.throughput results "transmit") *. 1e6)
    /. 1e6)

let test_pda_uml_asset () =
  let activities, charts = Uml.Diagram_text.parse_file (asset "pda.uml") in
  Alcotest.(check int) "one activity diagram" 1 (List.length activities);
  Alcotest.(check int) "no charts" 0 (List.length charts);
  let rates = Uml.Rates_file.of_file (asset "pda.rates") in
  let ex = Extract.Ad_to_pepanet.extract ~rates (List.hd activities) in
  let analysis =
    Choreographer.Workbench.analyse_net ~name:"pda" ex.Extract.Ad_to_pepanet.net
  in
  let cycle = 0.5 +. 0.1 +. 0.2 +. 2.0 +. 0.125 +. 1.0 in
  Alcotest.check close "asset matches the builder scenario" (1.0 /. cycle)
    (Option.get
       (Choreographer.Results.throughput analysis.Choreographer.Workbench.net_results
          "handover"))

let test_web_uml_asset () =
  let activities, charts = Uml.Diagram_text.parse_file (asset "web.uml") in
  Alcotest.(check int) "no activity diagrams" 0 (List.length activities);
  Alcotest.(check int) "two charts" 2 (List.length charts);
  let ex = Extract.Sc_to_pepa.extract charts in
  let analysis = Choreographer.Workbench.analyse_pepa ex.Extract.Sc_to_pepa.model in
  Alcotest.check close "request throughput matches the programmatic model" 0.368098
    (Float.round
       (Option.get
          (Choreographer.Results.throughput analysis.Choreographer.Workbench.results "request")
       *. 1e6)
    /. 1e6)

let test_extraction_golden () =
  (* The extractor's textual output for the committed pda.uml is itself
     committed; any change to the generated model is an intentional,
     reviewed change. *)
  let activities, _ = Uml.Diagram_text.parse_file (asset "pda.uml") in
  let rates = Uml.Rates_file.of_file (asset "pda.rates") in
  let ex = Extract.Ad_to_pepanet.extract ~rates (List.hd activities) in
  let produced = Pepanet.Net_printer.net_to_string ex.Extract.Ad_to_pepanet.net in
  let expected =
    In_channel.with_open_bin (asset "pda_expected.pepanet") In_channel.input_all
  in
  Alcotest.(check string) "golden extraction output" expected produced

(* The roaming asset used by the CI multicore smoke must stay in sync
   with the embedded scenario: same space, same measures. *)
let test_roaming_asset () =
  let from_file = Pepanet.Net_statespace.of_file (asset "roaming.pepanet") in
  let embedded = Scenarios.Roaming.space () in
  Alcotest.(check int) "same markings"
    (Pepanet.Net_statespace.n_markings embedded)
    (Pepanet.Net_statespace.n_markings from_file);
  Alcotest.(check int) "same transitions"
    (Pepanet.Net_statespace.n_transitions embedded)
    (Pepanet.Net_statespace.n_transitions from_file);
  let throughputs sp = Pepanet.Net_measures.throughputs sp (Pepanet.Net_statespace.steady_state sp) in
  List.iter2
    (fun (name_e, v_e) (name_f, v_f) ->
      Alcotest.(check string) "action name" name_e name_f;
      Alcotest.check close ("throughput of " ^ name_e) v_e v_f)
    (throughputs embedded) (throughputs from_file)

let suite =
  [
    Alcotest.test_case "mm1k.pepa" `Quick test_mm1k;
    Alcotest.test_case "instant_message.pepanet" `Quick test_instant_message_file;
    Alcotest.test_case "roaming.pepanet" `Quick test_roaming_asset;
    Alcotest.test_case "pda.uml + pda.rates" `Quick test_pda_uml_asset;
    Alcotest.test_case "web.uml" `Quick test_web_uml_asset;
    Alcotest.test_case "golden extraction output" `Quick test_extraction_golden;
  ]
