(* The benchmark harness: regenerates every evaluation artefact of the
   paper (its figures stand in for tables; the paper reports no numeric
   tables beyond them) and then times the tool chain itself with
   Bechamel.

     dune exec bench/main.exe

   Sections:
     E1  Figure 1  - file activities (immobile diagram -> PEPA net)
     E2  Figure 2  - instant message (mobile diagram, one <<move>>)
     E3  Figures 5-7 - PDA handover: throughput annotations + sweep
     E4  Figures 8-9 - client/Tomcat server: state probabilities and the
                       servlet-cache optimisation study + sweep
     E5  Figure 4  - extraction/reflection tool-chain artefacts
     E6  Section 6 - scalability: exact solution vs state-space explosion
     microbenchmarks - Bechamel timings of each tool-chain stage *)

let section = Choreographer.Report.section
let table = Choreographer.Report.table

let throughput results name =
  Option.value ~default:0.0 (Choreographer.Results.throughput results name)

let f v = Printf.sprintf "%.6f" v

(* ------------------------------------------------------------------ *)
(* E1                                                                  *)
(* ------------------------------------------------------------------ *)

let e1 () =
  print_string (section "E1 (Figure 1): activities on a file, immobile diagram");
  let ex = Scenarios.File_protocol.extraction () in
  let analysis =
    Choreographer.Workbench.analyse_net ~name:"FileActivities" ex.Extract.Ad_to_pepanet.net
  in
  let results = analysis.Choreographer.Workbench.net_results in
  (* closed-form cycle: race of the two opens (1/4), op by branch, close,
     reset: mean 0.7; session rate 1/0.7, each branch half. *)
  let session = 1.0 /. 0.7 in
  let rows =
    [
      [ "openread"; f (session /. 2.0); f (throughput results "openread") ];
      [ "openwrite"; f (session /. 2.0); f (throughput results "openwrite") ];
      [ "read"; f (session /. 2.0); f (throughput results "read") ];
      [ "write"; f (session /. 2.0); f (throughput results "write") ];
      [ "close"; f session; f (throughput results "close") ];
    ]
  in
  print_string (table ~header:[ "activity"; "closed form"; "measured" ] rows);
  Printf.printf "states: %d  transitions: %d\n\n" results.Choreographer.Results.n_states
    results.Choreographer.Results.n_transitions

(* ------------------------------------------------------------------ *)
(* E2                                                                  *)
(* ------------------------------------------------------------------ *)

let e2 () =
  print_string (section "E2 (Figure 2): the instant message crosses the net");
  let space = Pepanet.Net_statespace.of_string Scenarios.Instant_message.pepanet_source in
  let pi = Pepanet.Net_statespace.steady_state space in
  let cycle =
    (1.0 /. 2.0) +. (1.0 /. 5.0) +. (1.0 /. 4.0) +. (1.0 /. 1.5) +. (1.0 /. 2.0)
    +. (1.0 /. 10.0) +. (1.0 /. 4.0) +. (1.0 /. 8.0)
  in
  let rows =
    List.map
      (fun action ->
        (* close happens twice per cycle: once after write, once after read *)
        let per_cycle = if action = "close" then 2.0 else 1.0 in
        [ action; f (per_cycle /. cycle); f (Pepanet.Net_measures.throughput space pi action) ])
      [ "openwrite"; "write"; "close"; "transmit"; "openread"; "read"; "sendback" ]
  in
  print_string (table ~header:[ "activity"; "closed form"; "measured" ] rows);
  let locations = Pepanet.Net_measures.token_location_probabilities space pi ~token:0 in
  List.iter (fun (p, v) -> Printf.printf "P(message at %s) = %s\n" p (f v)) locations;
  (* the extracted diagram agrees *)
  let ex = Scenarios.Instant_message.extraction () in
  let analysis = Choreographer.Workbench.analyse_net ~name:"im" ex.Extract.Ad_to_pepanet.net in
  Printf.printf "extracted-diagram transmit throughput: %s (hand-written: %s)\n\n"
    (f (throughput analysis.Choreographer.Workbench.net_results "transmit"))
    (f (Pepanet.Net_measures.throughput space pi "transmit"))

(* ------------------------------------------------------------------ *)
(* E3                                                                  *)
(* ------------------------------------------------------------------ *)

let e3 () =
  print_string (section "E3 (Figures 5-7): PDA handover throughput annotations");
  let options = { Choreographer.Pipeline.default_options with rates = Scenarios.Pda.rates } in
  let outcome =
    Choreographer.Pipeline.process_document ~options (Scenarios.Pda.poseidon_project ())
  in
  let results = List.hd outcome.Choreographer.Pipeline.results in
  let diagram = Uml.Xmi_read.activity_of_xml outcome.Choreographer.Pipeline.reflected in
  let cycle = 0.5 +. 0.1 +. 0.2 +. 2.0 +. 0.125 +. 1.0 in
  let expectation = function
    | "abort_download" | "continue_download" -> 1.0 /. cycle /. 2.0
    | _ -> 1.0 /. cycle
  in
  let rows =
    List.filter_map
      (fun (n : Uml.Activity.node) ->
        match n.Uml.Activity.kind with
        | Uml.Activity.Action { name; move } ->
            let mangled = Extract.Names.action_name name in
            let annotated =
              Option.value ~default:"-"
                (Uml.Activity.annotation diagram ~node_id:n.Uml.Activity.node_id
                   ~tag:"throughput")
            in
            Some
              [ name; (if move then "<<move>>" else ""); f (expectation mangled); annotated ]
        | _ -> None)
      diagram.Uml.Activity.nodes
  in
  print_string
    (table
       ~header:[ "activity (Figure 7 annotation)"; "stereotype"; "closed form"; "reflected" ]
       rows);
  Printf.printf "markings: %d   layout preserved: %b\n" results.Choreographer.Results.n_states
    (Uml.Poseidon.layout_of outcome.Choreographer.Pipeline.reflected <> []);
  (* Sweep: the handover rate controls the achievable session rate. *)
  print_newline ();
  print_string "sweep: download-session throughput vs handover rate\n";
  let sweep_rows =
    List.map
      (fun h ->
        let rates = Scenarios.Pda.rates_with_handover h in
        let ex = Extract.Ad_to_pepanet.extract ~rates (Scenarios.Pda.diagram ()) in
        let analysis =
          Choreographer.Workbench.analyse_net ~name:"pda" ex.Extract.Ad_to_pepanet.net
        in
        [
          Printf.sprintf "%.2f" h;
          f (throughput analysis.Choreographer.Workbench.net_results "download_file");
          f (1.0 /. (1.925 +. (1.0 /. h)));
        ])
      [ 0.125; 0.25; 0.5; 1.0; 2.0; 4.0; 8.0 ]
  in
  print_string (table ~header:[ "handover rate"; "measured"; "closed form" ] sweep_rows);
  print_newline ();
  (* Transient view: with ~restart:`Absorb the diagram keeps its
     terminating reading, and uniformisation gives the probability that
     the session has completed by time t. *)
  print_string "transient: P(download session finished by t) (absorbing reading)\n";
  let ex =
    Extract.Ad_to_pepanet.extract ~rates:Scenarios.Pda.rates ~restart:`Absorb
      (Scenarios.Pda.diagram ())
  in
  let space =
    Pepanet.Net_statespace.build (Pepanet.Net_compile.compile ex.Extract.Ad_to_pepanet.net)
  in
  let lts = Pepanet.Net_statespace.lts space in
  let finished = Markov.Lts.deadlocks lts in
  let transient_rows =
    List.map
      (fun t ->
        let pi = Markov.Lts.transient lts ~time:t in
        let p = List.fold_left (fun acc i -> acc +. pi.(i)) 0.0 finished in
        [ Printf.sprintf "%.1f" t; f p ])
      [ 1.0; 2.0; 4.0; 8.0; 16.0; 32.0 ]
  in
  print_string (table ~header:[ "t (s)"; "P(finished)" ] transient_rows);
  print_newline ()

(* ------------------------------------------------------------------ *)
(* E4                                                                  *)
(* ------------------------------------------------------------------ *)

let e4 () =
  print_string (section "E4 (Figures 8-9): Tomcat JSP lifecycle and the servlet cache");
  let without = Scenarios.Tomcat.study ~server:(Scenarios.Tomcat.server_jsp ()) in
  let with_opt = Scenarios.Tomcat.study ~server:(Scenarios.Tomcat.server_cached ()) in
  let show title study =
    Printf.printf "%s\n" title;
    List.iter
      (fun (_chart, leaf) ->
        let probabilities =
          Choreographer.Workbench.local_probabilities study.Scenarios.Tomcat.analysis ~leaf
        in
        List.iter
          (fun (state, p) -> if p > 1e-12 then Printf.printf "  %-28s %s\n" state (f p))
          probabilities)
      study.Scenarios.Tomcat.extraction.Extract.Sc_to_pepa.chart_leaf;
    Printf.printf "  client waiting delay: %s s\n" (f study.Scenarios.Tomcat.waiting_delay)
  in
  show "without optimisation (Figure 9 lifecycle):" without;
  show "with direct servlet lookup:" with_opt;
  let reduction =
    without.Scenarios.Tomcat.waiting_delay /. with_opt.Scenarios.Tomcat.waiting_delay
  in
  Printf.printf "delay reduction factor: %.1f (closed form %.1f)\n\n" reduction
    (((1.0 /. 50.0) +. (1.0 /. 2.0) +. (1.0 /. 1.5) +. 0.01 +. 0.02)
    /. ((1.0 /. 200.0) +. 0.01 +. 0.02));
  print_string "sweep: the conclusion is robust across translate/compile rates\n";
  let rows =
    List.map
      (fun (translate, compile) ->
        let base =
          Scenarios.Tomcat.study ~server:(Scenarios.Tomcat.server_jsp ~translate ~compile ())
        in
        let opt =
          Scenarios.Tomcat.study ~server:(Scenarios.Tomcat.server_cached ~translate ~compile ())
        in
        [
          Printf.sprintf "%.1f / %.1f" translate compile;
          f base.Scenarios.Tomcat.waiting_delay;
          f opt.Scenarios.Tomcat.waiting_delay;
          Printf.sprintf "%.1fx"
            (base.Scenarios.Tomcat.waiting_delay /. opt.Scenarios.Tomcat.waiting_delay);
        ])
      [ (0.5, 0.5); (1.0, 1.0); (2.0, 1.5); (4.0, 3.0); (8.0, 6.0) ]
  in
  print_string
    (table ~header:[ "translate/compile"; "delay without"; "delay with"; "reduction" ] rows);
  print_newline ()

(* ------------------------------------------------------------------ *)
(* E5                                                                  *)
(* ------------------------------------------------------------------ *)

let e5 () =
  print_string (section "E5 (Figure 4): extraction-reflection tool chain artefacts");
  let project = Scenarios.Pda.poseidon_project () in
  let options = { Choreographer.Pipeline.default_options with rates = Scenarios.Pda.rates } in
  let outcome = Choreographer.Pipeline.process_document ~options project in
  let original_layout = List.map Xml_kit.Minixml.to_string (Uml.Poseidon.layout_of project) in
  let reflected_layout =
    List.map Xml_kit.Minixml.to_string
      (Uml.Poseidon.layout_of outcome.Choreographer.Pipeline.reflected)
  in
  let net_text =
    match outcome.Choreographer.Pipeline.extracted_nets with
    | (_, net) :: _ -> Pepanet.Net_printer.net_to_string net
    | [] -> ""
  in
  let results = List.hd outcome.Choreographer.Pipeline.results in
  let xmltable = Choreographer.Results.to_xmltable results in
  let reread = Choreographer.Results.of_xmltable xmltable in
  let reflected_diagram = Uml.Xmi_read.activity_of_xml outcome.Choreographer.Pipeline.reflected in
  let annotation_count =
    List.length
      (List.filter
         (fun (n : Uml.Activity.node) ->
           Uml.Activity.annotation reflected_diagram ~node_id:n.Uml.Activity.node_id
             ~tag:"throughput"
           <> None)
         (Uml.Activity.action_nodes reflected_diagram))
  in
  let rows =
    [
      [
        "Poseidon preprocessor strips layout";
        string_of_bool (Uml.Poseidon.layout_of (Uml.Poseidon.strip project) = []);
      ];
      [
        ".pepanet artefact produced and reparsable";
        string_of_bool
          (net_text <> ""
          &&
          try
            ignore (Pepanet.Net_parser.net_of_string net_text);
            true
          with _ -> false);
      ];
      [ ".xmltable round-trips"; string_of_bool (reread = results) ];
      [
        "postprocessor restores layout byte-identically";
        string_of_bool (original_layout = reflected_layout);
      ];
      [ "reflected annotations"; string_of_int annotation_count ];
    ]
  in
  print_string (table ~header:[ "check"; "value" ] rows);
  print_newline ()

(* ------------------------------------------------------------------ *)
(* E6                                                                  *)
(* ------------------------------------------------------------------ *)

let replicated_model n =
  Printf.sprintf
    {|
      Proc = (task, 1.0).(swap, 2.0).Proc;
      Srv = (task, infty).(log, 5.0).Srv;
      system (Proc[%d]) <task> Srv;
    |}
    n

let e6 () =
  print_string (section "E6 (Section 6): exact solution vs state-space growth");
  let rows =
    List.map
      (fun n ->
        let space, build_s =
          Obs.Clock.time (fun () -> Pepa.Statespace.of_string (replicated_model n))
        in
        let _pi, solve_s = Obs.Clock.time (fun () -> Pepa.Statespace.steady_state space) in
        [
          string_of_int n;
          string_of_int (Pepa.Statespace.n_states space);
          string_of_int (Pepa.Statespace.n_transitions space);
          Printf.sprintf "%.4f" build_s;
          Printf.sprintf "%.4f" solve_s;
        ])
      [ 1; 2; 4; 6; 8; 10 ]
  in
  print_string
    (table ~header:[ "replicas"; "states"; "transitions"; "build (s)"; "solve (s)" ] rows);
  print_newline ();
  print_string "marking-graph growth with the number of transmitters (PDA journey)\n";
  let rows =
    List.map
      (fun k ->
        let diagram = Scenarios.Pda.diagram_with_transmitters k in
        let rates = Scenarios.Pda.rates_for_transmitters k in
        let ex = Extract.Ad_to_pepanet.extract ~rates diagram in
        let (space, pi), dt =
          Obs.Clock.time (fun () ->
              let space =
                Pepanet.Net_statespace.build
                  (Pepanet.Net_compile.compile ex.Extract.Ad_to_pepanet.net)
              in
              (space, Pepanet.Net_statespace.steady_state space))
        in
        let per_journey = Pepanet.Net_measures.throughput space pi "finish_download" in
        [
          string_of_int k;
          string_of_int (Pepanet.Net_statespace.n_markings space);
          string_of_int (Pepanet.Net_statespace.n_transitions space);
          Printf.sprintf "%.6f" per_journey;
          Printf.sprintf "%.4f" dt;
        ])
      [ 2; 3; 5; 8; 12 ]
  in
  print_string
    (table ~header:[ "transmitters"; "markings"; "transitions"; "journeys/s"; "total (s)" ] rows);
  print_newline ();
  print_string "solver comparison on the 8-replica model\n";
  let space = Pepa.Statespace.of_string (replicated_model 8) in
  let chain = Pepa.Statespace.ctmc space in
  let reference = Markov.Steady.solve ~method_:Markov.Steady.Direct chain in
  let rows =
    List.map
      (fun method_ ->
        let pi, dt = Obs.Clock.time (fun () -> Markov.Steady.solve ~method_ chain) in
        [
          Markov.Steady.method_name method_;
          Printf.sprintf "%.4f" dt;
          Printf.sprintf "%.2e" (Markov.Steady.residual chain pi);
          Printf.sprintf "%.2e" (Markov.Measures.distribution_distance reference pi);
        ])
      [ Markov.Steady.Direct; Markov.Steady.Gauss_seidel; Markov.Steady.Sor 1.2;
        Markov.Steady.Power ]
  in
  print_string (table ~header:[ "method"; "time (s)"; "residual"; "vs direct" ] rows);
  print_newline ();
  (* The complementary approach of the paper's related work: Monte-Carlo
     simulation with confidence intervals on the same chain. *)
  print_string "numerical solution vs simulation (task throughput, 8 replicas)\n";
  let pi = Markov.Steady.solve chain in
  let task_jumps = Hashtbl.create 64 in
  Markov.Lts.iter (Pepa.Statespace.lts space) (fun ~src ~label ~rate:_ ~dst ->
      if Pepa.Action.equal label (Pepa.Action.act "task") then
        Hashtbl.replace task_jumps (src, dst) ());
  let exact = Pepa.Statespace.throughput space pi "task" in
  let est, dt =
    Obs.Clock.time (fun () ->
        Markov.Simulate.throughput_estimate chain
          ~rng:(Markov.Simulate.Rng.create ~seed:2006L)
          ~initial:0 ~batches:20 ~batch_time:100.0 ~warmup:10.0
          ~counts:(fun src dst -> Hashtbl.mem task_jumps (src, dst))
          ())
  in
  print_string
    (table
       ~header:[ "approach"; "throughput(task)"; "95% CI"; "time (s)" ]
       [
         [ "numerical (exact)"; Printf.sprintf "%.6f" exact; "-"; "-" ];
         [
           "simulation";
           Printf.sprintf "%.6f" est.Markov.Simulate.mean;
           Printf.sprintf "+/- %.6f" est.Markov.Simulate.half_width;
           Printf.sprintf "%.3f" dt;
         ];
       ]);
  print_newline ()

(* ------------------------------------------------------------------ *)
(* E7                                                                  *)
(* ------------------------------------------------------------------ *)

let e7 () =
  print_string
    (section "E7 (introduction): move the code or move the data? (crossover study)");
  let rows =
    List.map
      (fun bandwidth ->
        let c = Scenarios.Code_mobility.compare_at ~bandwidth () in
        let p = c.Scenarios.Code_mobility.params in
        [
          Printf.sprintf "%.0f" bandwidth;
          f c.Scenarios.Code_mobility.client_server_jobs;
          f (Scenarios.Code_mobility.closed_form_jobs p `Client_server);
          f c.Scenarios.Code_mobility.mobile_agent_jobs;
          f (Scenarios.Code_mobility.closed_form_jobs p `Mobile_agent);
          (if c.Scenarios.Code_mobility.mobile_agent_jobs
              > c.Scenarios.Code_mobility.client_server_jobs
           then "mobile agent"
           else "client-server");
        ])
      [ 1.0; 5.0; 10.0; 25.0; 50.0; 75.0; 100.0; 200.0; 400.0 ]
  in
  print_string
    (table
       ~header:[ "bandwidth"; "cs jobs/s"; "cs closed"; "ma jobs/s"; "ma closed"; "winner" ]
       rows);
  Printf.printf "crossover bandwidth: %.2f (closed form 72.86)\n\n"
    (Scenarios.Code_mobility.crossover_bandwidth ~lo:10.0 ~hi:200.0 ())

(* ------------------------------------------------------------------ *)
(* Bechamel microbenchmarks                                            *)
(* ------------------------------------------------------------------ *)

let microbenchmarks () =
  print_string (section "Tool-chain microbenchmarks (Bechamel)");
  let open Bechamel in
  let pda_project = Scenarios.Pda.poseidon_project () in
  let pda_text = Xml_kit.Minixml.to_string pda_project in
  let pda_diagram = Scenarios.Pda.diagram () in
  let pda_net = (Scenarios.Pda.extraction ()).Extract.Ad_to_pepanet.net in
  let pda_compiled = Pepanet.Net_compile.compile pda_net in
  let medium_model = replicated_model 6 in
  let medium_space = Pepa.Statespace.of_string medium_model in
  let medium_chain = Pepa.Statespace.ctmc medium_space in
  let options = { Choreographer.Pipeline.default_options with rates = Scenarios.Pda.rates } in
  let tests =
    [
      Test.make ~name:"xml: parse PDA project"
        (Staged.stage (fun () -> ignore (Xml_kit.Minixml.parse_string pda_text)));
      Test.make ~name:"pepa: parse+check medium model"
        (Staged.stage (fun () -> ignore (Pepa.Compile.of_string medium_model)));
      Test.make ~name:"pepa: state space (6 replicas)"
        (Staged.stage (fun () -> ignore (Pepa.Statespace.of_string medium_model)));
      Test.make ~name:"ctmc: gauss-seidel (6 replicas)"
        (Staged.stage (fun () ->
             ignore (Markov.Steady.solve ~method_:Markov.Steady.Gauss_seidel medium_chain)));
      Test.make ~name:"ctmc: direct LU (6 replicas)"
        (Staged.stage (fun () ->
             ignore (Markov.Steady.solve ~method_:Markov.Steady.Direct medium_chain)));
      Test.make ~name:"extract: PDA diagram -> PEPA net"
        (Staged.stage (fun () ->
             ignore (Extract.Ad_to_pepanet.extract ~rates:Scenarios.Pda.rates pda_diagram)));
      Test.make ~name:"pepanet: marking graph (PDA)"
        (Staged.stage (fun () -> ignore (Pepanet.Net_statespace.build pda_compiled)));
      Test.make ~name:"pipeline: full Figure 4 round trip"
        (Staged.stage (fun () ->
             ignore (Choreographer.Pipeline.process_document ~options pda_project)));
    ]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let benchmark test =
    let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:(Some 1000) () in
    let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Bechamel.Measure.run |] in
    let raw = Benchmark.all cfg [ instance ] test in
    Analyze.all ols instance raw
  in
  let rows =
    List.concat_map
      (fun test ->
        let results = benchmark (Test.make_grouped ~name:"stage" [ test ]) in
        Hashtbl.fold
          (fun name ols acc ->
            let nanos =
              match Analyze.OLS.estimates ols with
              | Some [ est ] -> Printf.sprintf "%.0f" est
              | _ -> "-"
            in
            [ name; nanos ] :: acc)
          results []
        |> List.sort compare)
      tests
  in
  print_string (table ~header:[ "stage"; "ns/run" ] rows)

let () =
  (* --smoke: the smallest scenario only, used by CI to catch perf-path
     regressions without paying for the full evaluation sweep. *)
  if Array.exists (( = ) "--smoke") Sys.argv then e1 ()
  else begin
    e1 ();
    e2 ();
    e3 ();
    e4 ();
    e5 ();
    e6 ();
    e7 ();
    microbenchmarks ()
  end
