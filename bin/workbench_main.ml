(* The PEPA Workbench for PEPA nets, command-line edition: parse, derive
   the state space, solve the CTMC, and report measures for .pepa and
   .pepanet models. *)

open Cmdliner

let is_net_file = Cli_support.is_net_file
let file_arg = Cli_support.model_arg
let net_arg = Cli_support.net_arg

(* Every subcommand loads its model through the wrapped Workbench
   stages, so a malformed model is reported as [error: NAME: ...] with
   exit 1 by [Cli_support.handle_errors], never as an uncaught exception. *)
module W = Choreographer.Workbench

let load_pepa ?(symmetry = false) path =
  let name = Filename.basename path in
  let model = W.parse_pepa ~name (In_channel.with_open_bin path In_channel.input_all) in
  let compiled, warnings = W.compile_pepa ~name model in
  (W.pepa_space ~name ~symmetry compiled, warnings)

let parse_net_file path =
  let name = Filename.basename path in
  (name, W.parse_net ~name (In_channel.with_open_bin path In_channel.input_all))

let load_net ?(symmetry = false) path =
  let name, net = parse_net_file path in
  let compiled = W.compile_net ~name net in
  (W.net_space ~name ~symmetry compiled, Pepanet.Net_compile.warnings compiled)

(* solve and query answer their request with an engine created in
   this process: the daemon's path, so a daemon reply is byte-identical
   to a one-shot run by construction. *)
let solve_cmd =
  let run () path net options =
    Cli_support.handle_errors (fun () ->
        Cli_support.arm_ledger ~tool:"workbench solve" ~model:path
          ~options:
            (Service.Engine.option_pairs options
               [ ("net", string_of_bool (is_net_file path net)) ]);
        let request = Cli_support.solve_request ~path ~net options in
        Cli_support.print_reply (Cli_support.in_process request).Service.Engine.response)
  in
  Cmd.v
    (Cmd.info "solve" ~doc:"Steady-state solution and throughput of every action type.")
    Term.(
      const run $ Cli_support.telemetry_term $ file_arg $ net_arg
      $ Cli_support.solve_options_term)

let statespace_cmd =
  let limit_arg =
    Arg.(value & opt int 200 & info [ "limit" ] ~docv:"N" ~doc:"Print at most N states.")
  in
  let run () path net limit aggregate =
    let symmetry = Markov.Lump.symmetry_enabled aggregate in
    Cli_support.handle_errors (fun () ->
        if is_net_file path net then begin
          let space, _ = load_net ~symmetry path in
          Format.printf "%a@." Pepanet.Net_statespace.pp_summary space;
          for i = 0 to min (limit - 1) (Pepanet.Net_statespace.n_markings space - 1) do
            Printf.printf "M%-4d %s\n" i (Pepanet.Net_statespace.marking_label space i)
          done
        end
        else begin
          let space, _ = load_pepa ~symmetry path in
          Format.printf "%a@." Pepa.Statespace.pp_summary space;
          for i = 0 to min (limit - 1) (Pepa.Statespace.n_states space - 1) do
            Printf.printf "S%-4d %s\n" i (Pepa.Statespace.state_label space i)
          done
        end)
  in
  Cmd.v
    (Cmd.info "statespace" ~doc:"Derive and print the reachable state space.")
    Term.(
      const run $ Cli_support.telemetry_term $ file_arg $ net_arg $ limit_arg
      $ Cli_support.aggregate_arg)

let check_cmd =
  let run () path net =
    Cli_support.handle_errors (fun () ->
        if is_net_file path net then begin
          let space, warnings = load_net path in
          Format.printf "%a@." Pepanet.Net_statespace.pp_summary space;
          List.iter (Printf.printf "warning: %s\n") warnings;
          List.iter
            (fun i -> Printf.printf "deadlock: %s\n" (Pepanet.Net_statespace.marking_label space i))
            (Markov.Lts.deadlocks (Pepanet.Net_statespace.lts space))
        end
        else begin
          let space, warnings = load_pepa path in
          Format.printf "%a@." Pepa.Analysis.pp_report space;
          List.iter (Printf.printf "warning: %s\n") warnings;
          List.iter
            (fun i -> Printf.printf "deadlock: %s\n" (Pepa.Statespace.state_label space i))
            (Markov.Lts.deadlocks (Pepa.Statespace.lts space))
        end)
  in
  Cmd.v
    (Cmd.info "check" ~doc:"Static checks, deadlock search and model warnings.")
    Term.(const run $ Cli_support.telemetry_term $ file_arg $ net_arg)

let transient_cmd =
  let time_arg =
    Arg.(required & opt (some float) None & info [ "t"; "time" ] ~docv:"T" ~doc:"Time horizon.")
  in
  let run () path net time =
    Cli_support.handle_errors (fun () ->
        if is_net_file path net then begin
          let space, _ = load_net path in
          let pi = Markov.Lts.transient (Pepanet.Net_statespace.lts space) ~time in
          Array.iteri
            (fun i p ->
              if p > 1e-9 then
                Printf.printf "%-50s %.6f\n" (Pepanet.Net_statespace.marking_label space i) p)
            pi
        end
        else begin
          let space, _ = load_pepa path in
          let pi = Markov.Lts.transient (Pepa.Statespace.lts space) ~time in
          Array.iteri
            (fun i p ->
              if p > 1e-9 then
                Printf.printf "%-50s %.6f\n" (Pepa.Statespace.state_label space i) p)
            pi
        end)
  in
  Cmd.v
    (Cmd.info "transient" ~doc:"Transient state probabilities at a time horizon.")
    Term.(const run $ Cli_support.telemetry_term $ file_arg $ net_arg $ time_arg)

let export_cmd =
  let basename_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"BASENAME"
          ~doc:"Basename for the .tra/.sta/.lab files.")
  in
  let run () path net basename =
    Cli_support.handle_errors (fun () ->
        let chain, label_groups =
          if is_net_file path net then begin
            let space, _ = load_net path in
            let labels =
              List.init (Pepanet.Net_statespace.n_markings space) (fun i ->
                  (Pepanet.Net_statespace.marking_label space i, [ i ]))
            in
            (Markov.Lts.ctmc (Pepanet.Net_statespace.lts space), labels)
          end
          else begin
            let space, _ = load_pepa path in
            let labels =
              List.init (Pepa.Statespace.n_states space) (fun i ->
                  (Pepa.Statespace.state_label space i, [ i ]))
            in
            (Pepa.Statespace.ctmc space, labels)
          end
        in
        let written = Markov.Prism.export ~labels:label_groups ~initial:0 ~basename chain in
        List.iter (Printf.printf "wrote %s\n") written)
  in
  Cmd.v
    (Cmd.info "export" ~doc:"Export the derived CTMC in PRISM explicit-state format.")
    Term.(const run $ Cli_support.telemetry_term $ file_arg $ net_arg $ basename_arg)

let passage_cmd =
  let action_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "a"; "action" ] ~docv:"ACTION"
          ~doc:"Passage from the states enabling ACTION to the states reached by it.")
  in
  let times_arg =
    Arg.(
      value
      & opt (list float) [ 0.5; 1.0; 2.0; 4.0; 8.0 ]
      & info [ "t"; "times" ] ~docv:"T1,T2,..." ~doc:"Time points for the CDF.")
  in
  let report chain sources targets times action =
    if sources = [] then begin
      Printf.eprintf "error: no state enables %s\n" action;
      exit 1
    end;
    Printf.printf "completion probability: %.6f\n"
      (Markov.Passage.completion_probability chain ~sources ~targets);
    Printf.printf "mean passage time: %.6f\n" (Markov.Passage.mean chain ~sources ~targets);
    List.iter
      (fun (t, p) -> Printf.printf "F(%g) = %.6f\n" t p)
      (Markov.Passage.cdf_curve chain ~sources ~targets ~times)
  in
  let run () path net times action =
    Cli_support.handle_errors (fun () ->
        if is_net_file path net then begin
          let space, _ = load_net path in
          let lts = Pepanet.Net_statespace.lts space in
          let matching = Pepanet.Net_measures.label_matches_action action in
          let sources = List.map (fun s -> (s, 1.0)) (Markov.Lts.sources lts matching) in
          report (Markov.Lts.ctmc lts) sources (Markov.Lts.targets lts matching) times action
        end
        else begin
          let space, _ = load_pepa path in
          let chain = Pepa.Statespace.ctmc space in
          let sources =
            Pepa.Analysis.states_enabling space action |> List.map (fun s -> (s, 1.0))
          in
          report chain sources (Pepa.Analysis.states_entered_by space action) times action
        end)
  in
  Cmd.v
    (Cmd.info "passage"
       ~doc:"First-passage-time analysis around an action type.")
    Term.(const run $ Cli_support.telemetry_term $ file_arg $ net_arg $ times_arg $ action_arg)

let graph_cmd =
  let output_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write the dot graph here (default: stdout).")
  in
  let kind_arg =
    Arg.(
      value
      & opt (enum [ ("statespace", `Statespace); ("structure", `Structure) ]) `Statespace
      & info [ "k"; "kind" ] ~docv:"KIND"
          ~doc:"What to draw: the reachable statespace, or (for nets) the net structure.")
  in
  let run () path net output kind =
    Cli_support.handle_errors (fun () ->
        let dot =
          if is_net_file path net then begin
            match kind with
            | `Structure -> Choreographer.Graphviz.net_structure (snd (parse_net_file path))
            | `Statespace -> Choreographer.Graphviz.net_statespace (fst (load_net path))
          end
          else Choreographer.Graphviz.pepa_statespace (fst (load_pepa path))
        in
        match output with
        | Some file ->
            Out_channel.with_open_bin file (fun oc -> Out_channel.output_string oc dot);
            Printf.printf "wrote %s\n" file
        | None -> print_string dot)
  in
  Cmd.v
    (Cmd.info "graph" ~doc:"Render the state space (or net structure) as Graphviz dot.")
    Term.(const run $ Cli_support.telemetry_term $ file_arg $ net_arg $ output_arg $ kind_arg)

let query_cmd =
  let query_arg =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"QUERY"
          ~doc:
            "Measure expression, e.g. 'throughput(request)' or \
             'passage(request -> response).mean'.")
  in
  let run () path net query =
    Cli_support.handle_errors (fun () ->
        let request =
          Cli_support.query_request ~path ~net ~query Service.Protocol.default_options
        in
        Cli_support.print_reply (Cli_support.in_process request).Service.Engine.response)
  in
  Cmd.v
    (Cmd.info "query" ~doc:"Evaluate a measure expression against a solved model.")
    Term.(const run $ Cli_support.telemetry_term $ file_arg $ net_arg $ query_arg)

let () =
  let doc = "the PEPA Workbench for PEPA nets" in
  let info = Cmd.info "pepa-workbench" ~version:"1.0.0" ~doc in
  exit
    (Cli_support.eval_cli
       (Cmd.group info
          [ solve_cmd; statespace_cmd; check_cmd; transient_cmd; export_cmd; passage_cmd; graph_cmd; query_cmd ]))
