module X = Xml_kit.Minixml

type options = {
  rates : Uml.Rates_file.t;
  restart : [ `Cycle | `Absorb ];
  method_ : Markov.Steady.method_ option;
  max_states : int option;
  aggregate : Markov.Lump.mode;
  fluid : Fluid.Rk45.tolerances option;
}

let default_options =
  {
    rates = Uml.Rates_file.empty;
    restart = `Cycle;
    method_ = None;
    max_states = None;
    aggregate = Markov.Lump.No_agg;
    fluid = None;
  }

type outcome = {
  reflected : X.t;
  results : Results.t list;
  extracted_nets : (string * Pepanet.Net.t) list;
  extracted_models : (string * Pepa.Syntax.model) list;
}

exception Pipeline_error of string

let fail fmt = Format.kasprintf (fun msg -> raise (Pipeline_error msg)) fmt

let through_mdr doc =
  let repo = Uml.Mdr.create () in
  (try Uml.Mdr.import_xmi repo doc
   with Uml.Mdr.Metamodel_violation msg -> fail "metamodel violation: %s" msg);
  Uml.Mdr.export_xmi repo

let model_name_of doc =
  match Xml_kit.Xpath_lite.select_one "//UML:Model" doc with
  | Some model -> Option.value ~default:"model" (X.attribute "name" model)
  | None -> "model"

(* In fluid mode an extracted system may have no fluid interpretation
   (passive cooperation, mixed firing priorities); fall back to the
   exact solve with a warning naming the option that asked for the
   approximation rather than failing the document. *)
let exact_fallback_warning reason =
  Printf.sprintf "--fluid: %s; solved exactly instead" reason

let analyse_activity options interactions diagram =
  let extraction =
    try
      Extract.Ad_to_pepanet.extract ~rates:options.rates ~restart:options.restart ~interactions
        diagram
    with Extract.Ad_to_pepanet.Extraction_error msg ->
      fail "extraction of %s failed: %s" diagram.Uml.Activity.diagram_name msg
  in
  let name = diagram.Uml.Activity.diagram_name in
  let exact ?(extra_warnings = []) () =
    let analysis =
      try
        Workbench.analyse_net ~name ?method_:options.method_
          ?max_markings:options.max_states ~aggregate:options.aggregate
          extraction.Extract.Ad_to_pepanet.net
      with Workbench.Analysis_error msg -> fail "%s" msg
    in
    let r = analysis.Workbench.net_results in
    { r with Results.warnings = r.Results.warnings @ extra_warnings }
  in
  let results =
    match options.fluid with
    | None -> exact ()
    | Some tolerances -> (
        match
          Workbench.analyse_net_fluid ~name ~tolerances extraction.Extract.Ad_to_pepanet.net
        with
        | analysis -> analysis.Workbench.net_fluid_results
        | exception Workbench.Analysis_error msg ->
            exact ~extra_warnings:[ exact_fallback_warning msg ] ())
  in
  let throughputs = results.Results.throughputs in
  let reflected_diagram =
    Extract.Reflector.reflect_activity extraction
      ?approximation:results.Results.approximation ~throughputs diagram
  in
  (reflected_diagram, extraction, results)

let analyse_statecharts options charts =
  let extraction =
    try Extract.Sc_to_pepa.extract ~rates:options.rates charts
    with Extract.Sc_to_pepa.Extraction_error msg ->
      fail "state-diagram extraction failed: %s" msg
  in
  let name =
    String.concat "+" (List.map (fun c -> c.Uml.Statechart.chart_name) charts)
  in
  (* Steady-state probability of each state constant, computed per chart
     from its leaf's local distribution.  Shared actions extract as
     passive cooperation, so in fluid mode the extracted model may have
     no fluid interpretation; see [exact_fallback_warning]. *)
  let exact ?(extra_warnings = []) () =
    let analysis =
      try
        Workbench.analyse_pepa ~name ?method_:options.method_ ?max_states:options.max_states
          ~aggregate:options.aggregate extraction.Extract.Sc_to_pepa.model
      with Workbench.Analysis_error msg -> fail "%s" msg
    in
    let probabilities =
      List.concat_map
        (fun (_chart, leaf) -> Workbench.local_probabilities analysis ~leaf)
        extraction.Extract.Sc_to_pepa.chart_leaf
    in
    let results =
      {
        analysis.Workbench.results with
        Results.state_probabilities = probabilities;
        Results.warnings = analysis.Workbench.results.Results.warnings @ extra_warnings;
      }
    in
    (probabilities, results)
  in
  let probabilities, results =
    match options.fluid with
    | None -> exact ()
    | Some tolerances -> (
        match
          Workbench.analyse_pepa_fluid ~name ~tolerances extraction.Extract.Sc_to_pepa.model
        with
        | analysis ->
            let probabilities =
              List.concat_map
                (fun (_chart, leaf) -> Workbench.fluid_local_probabilities analysis ~leaf)
                extraction.Extract.Sc_to_pepa.chart_leaf
            in
            ( probabilities,
              {
                analysis.Workbench.fluid_results with
                Results.state_probabilities = probabilities;
              } )
        | exception Workbench.Analysis_error msg ->
            exact ~extra_warnings:[ exact_fallback_warning msg ] ())
  in
  let reflected_charts =
    Extract.Reflector.reflect_statecharts extraction
      ?approximation:results.Results.approximation ~probabilities charts
  in
  (reflected_charts, extraction, results)

let process_document ?(options = default_options) original =
  Obs.Span.with_ "pipeline" (fun pipeline_span ->
  let stripped =
    Obs.Span.with_ "pipeline.strip" (fun _ -> Uml.Poseidon.strip original)
  in
  let validated =
    Obs.Span.with_ "pipeline.mdr_validate" (fun _ -> through_mdr stripped)
  in
  let activities =
    try Uml.Xmi_read.activities_of_xml validated
    with Uml.Xmi_read.Xmi_error msg -> fail "reading activity graphs: %s" msg
  in
  let charts =
    try Uml.Xmi_read.statecharts_of_xml validated
    with Uml.Xmi_read.Xmi_error msg -> fail "reading state machines: %s" msg
  in
  if activities = [] && charts = [] then fail "the document contains no analysable diagram";
  let interactions =
    try Uml.Xmi_read.interactions_of_xml validated
    with Uml.Xmi_read.Xmi_error msg -> fail "reading interactions: %s" msg
  in
  let activity_outcomes = List.map (analyse_activity options interactions) activities in
  let chart_outcome = if charts = [] then None else Some (analyse_statecharts options charts) in
  let reflected_activities = List.map (fun (d, _, _) -> d) activity_outcomes in
  let reflected_charts =
    match chart_outcome with Some (cs, _, _) -> cs | None -> []
  in
  let reflected =
    Obs.Span.with_ "pipeline.write_back" (fun _ ->
        let rebuilt =
          Uml.Xmi_write.document_to_xml ~model_name:(model_name_of validated)
            ~interactions reflected_activities reflected_charts
        in
        Uml.Poseidon.merge ~original ~reflected:rebuilt ())
  in
  Obs.Span.add_int pipeline_span "activities" (List.length activities);
  Obs.Span.add_int pipeline_span "charts" (List.length charts);
  {
    reflected;
    results =
      List.map (fun (_, _, r) -> r) activity_outcomes
      @ (match chart_outcome with Some (_, _, r) -> [ r ] | None -> []);
    extracted_nets =
      List.map
        (fun (d, e, _) -> (d.Uml.Activity.diagram_name, e.Extract.Ad_to_pepanet.net))
        activity_outcomes;
    extracted_models =
      (match chart_outcome with
      | Some (_, e, _) ->
          [ ("statecharts", e.Extract.Sc_to_pepa.model) ]
      | None -> []);
  })

let process_file ?(options = default_options) ?rates_path ~input ~output () =
  let options =
    match rates_path with
    | Some path -> { options with rates = Uml.Rates_file.of_file path }
    | None -> options
  in
  let doc =
    try X.parse_file input
    with X.Parse_error { line; col; message } ->
      fail "%s: XML error at %d:%d: %s" input line col message
  in
  let outcome = process_document ~options doc in
  X.write_file output outcome.reflected;
  outcome
