(* The Choreographer design platform, command-line edition.

   Subcommands mirror the design of Figure 4 of the paper:
     pipeline   full extract -> solve -> reflect round trip on an XMI file
     extract    produce the intermediate .pepanet (and .rates) artefacts
     info       list the analysable diagrams of a document
     strip      run only the Poseidon preprocessor *)

open Cmdliner

(* Inputs may be XMI documents or the plain-text notation of
   [Uml.Diagram_text]; the sniffing and conversion live in
   [Choreographer.Ingest], shared with the daemon.  The messages it
   returns are the exact bytes this front end always printed. *)
let read_document path =
  match Choreographer.Ingest.document_of_file path with
  | Ok doc -> doc
  | Error msg ->
      Printf.eprintf "%s\n" msg;
      exit 1

let load_rates rates_path =
  match Choreographer.Ingest.rates_of_file rates_path with
  | Ok rates -> rates
  | Error msg ->
      Printf.eprintf "%s\n" msg;
      exit 1

let input_arg =
  Arg.(required & opt (some file) None & info [ "i"; "input" ] ~docv:"FILE" ~doc:"Input XMI file.")

let rates_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "r"; "rates" ] ~docv:"FILE" ~doc:"Rates file (activity = rate lines).")

let absorb_arg =
  Arg.(
    value & flag
    & info [ "absorb" ]
        ~doc:
          "Keep terminating behaviour instead of cycling tokens back to their initial activity.")

(* The options of the document verbs: the solve options plus the
   extraction's restart policy. *)
let document_options_term =
  let make options absorb =
    { options with Service.Protocol.restart = (if absorb then `Absorb else `Cycle) }
  in
  Term.(const make $ Cli_support.solve_options_term $ absorb_arg)

let reflected_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Reflected XMI output file.")

let xmltable_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "xmltable" ] ~docv:"FILE" ~doc:"Also write results as an .xmltable document.")

(* ------------------------------------------------------------------ *)

(* The pipeline answers its request with an engine created in this
   process, exactly as the daemon answers [client pipeline]. *)
let pipeline_cmd =
  let html_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "html" ] ~docv:"FILE"
          ~doc:"Also write a self-contained HTML report (the Figure 7 view).")
  in
  let run () input output rates options xmltable html =
    Cli_support.handle_errors (fun () ->
        Cli_support.arm_ledger ~tool:"choreographer pipeline" ~model:input
          ~options:
            (Service.Engine.option_pairs options
               [ ("absorb", string_of_bool (options.Service.Protocol.restart = `Absorb)) ]);
        let request =
          Cli_support.document_request ~reflect_only:false ~input ~rates
            ~xmltable:(Option.is_some xmltable) options
        in
        let outcome = Cli_support.in_process request in
        Cli_support.print_pipeline_reply ~output ?xmltable ?html
          ?outcome:outcome.Service.Engine.pipeline outcome.Service.Engine.response)
  in
  Cmd.v
    (Cmd.info "pipeline" ~doc:"Extract, analyse and reflect a UML model (the full tool chain).")
    Term.(
      const run $ Cli_support.telemetry_term $ input_arg $ reflected_arg $ rates_arg
      $ document_options_term $ xmltable_arg $ html_arg)

let extract_cmd =
  let output_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Write the extracted .pepanet model here (default: stdout).")
  in
  let rates_out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "rates-out" ] ~docv:"FILE"
          ~doc:"Also write the resolved activity rates as a .rates file (the second \
                artefact of the paper's Figure 4).")
  in
  let run () input rates_path absorb output rates_out =
    Cli_support.handle_errors (fun () ->
        let doc = Uml.Poseidon.strip (read_document input) in
        let rates = load_rates rates_path in
        let restart = if absorb then `Absorb else `Cycle in
        let activities = Uml.Xmi_read.activities_of_xml doc in
        if activities = [] then begin
          Printf.eprintf "error: no activity graph in %s\n" input;
          exit 1
        end;
        List.iter
          (fun diagram ->
            let extraction = Extract.Ad_to_pepanet.extract ~rates ~restart diagram in
            let text = Pepanet.Net_printer.net_to_string extraction.Extract.Ad_to_pepanet.net in
            (match output with
            | Some path ->
                let oc = open_out path in
                output_string oc text;
                close_out oc;
                Printf.printf "extracted %s to %s\n" diagram.Uml.Activity.diagram_name path
            | None -> print_string text);
            (match rates_out with
            | Some path ->
                (* Recover name = value bindings from the generated rate
                   definitions (r_<action> = v). *)
                let resolved =
                  List.filter_map
                    (fun def ->
                      match def with
                      | Pepa.Syntax.Rate_def (name, Pepa.Syntax.Rnum v)
                        when String.length name > 2 && String.sub name 0 2 = "r_" ->
                          Some (String.sub name 2 (String.length name - 2), v)
                      | _ -> None)
                    extraction.Extract.Ad_to_pepanet.net.Pepanet.Net.definitions
                in
                let book =
                  List.fold_left
                    (fun acc (name, v) -> Uml.Rates_file.add acc name v)
                    Uml.Rates_file.empty resolved
                in
                Out_channel.with_open_bin path (fun oc ->
                    Out_channel.output_string oc (Uml.Rates_file.to_string book));
                Printf.printf "rates written to %s\n" path
            | None -> ()))
          activities)
  in
  Cmd.v
    (Cmd.info "extract" ~doc:"Extract the PEPA net from an activity diagram (no analysis).")
    Term.(
      const run $ Cli_support.telemetry_term $ input_arg $ rates_arg $ absorb_arg $ output_arg
      $ rates_out_arg)

let info_cmd =
  let run () input =
    let doc = Uml.Poseidon.strip (read_document input) in
    let activities = Uml.Xmi_read.activities_of_xml doc in
    let charts = Uml.Xmi_read.statecharts_of_xml doc in
    List.iter
      (fun (d : Uml.Activity.t) ->
        Printf.printf "activity diagram %s: %d nodes, %d objects, %d locations\n"
          d.Uml.Activity.diagram_name
          (List.length d.Uml.Activity.nodes)
          (List.length (Uml.Activity.object_names d))
          (List.length (Uml.Activity.locations d)))
      activities;
    List.iter
      (fun (c : Uml.Statechart.t) ->
        Printf.printf "state diagram %s: %d states, %d transitions\n" c.Uml.Statechart.chart_name
          (List.length c.Uml.Statechart.states)
          (List.length c.Uml.Statechart.transitions))
      charts;
    if activities = [] && charts = [] then Printf.printf "no analysable diagram found\n"
  in
  Cmd.v
    (Cmd.info "info" ~doc:"List the diagrams in an XMI document.")
    Term.(const run $ Cli_support.telemetry_term $ input_arg)

let strip_cmd =
  let output_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Stripped XMI output file.")
  in
  let run () input output =
    Cli_support.handle_errors (fun () ->
        let doc = read_document input in
        Xml_kit.Minixml.write_file output (Uml.Poseidon.strip doc);
        Printf.printf "metamodel-conformant XMI written to %s\n" output)
  in
  Cmd.v
    (Cmd.info "strip" ~doc:"Run the Poseidon preprocessor only (remove tool-specific layout).")
    Term.(const run $ Cli_support.telemetry_term $ input_arg $ output_arg)

(* ------------------------------------------------------------------ *)
(* The flight recorder front end: inspect the run ledger.              *)
(* ------------------------------------------------------------------ *)

let obs_cmd =
  let ledger_file_arg =
    Arg.(
      value
      & opt string (Obs.Ledger.default_path ())
      & info [ "ledger" ] ~docv:"FILE"
          ~doc:"Ledger to inspect (default: \\$CHOREOGRAPHER_LEDGER or \
                ~/.choreographer/runs.jsonl).")
  in
  let load path =
    match Obs.Ledger.load ~path with
    | [] ->
        Printf.eprintf "ledger %s has no records\n" path;
        exit 1
    | records -> Array.of_list records
    | exception Obs.Ledger.Format_error msg ->
        Printf.eprintf "error: %s\n" msg;
        exit 1
  in
  (* Runs are addressed by position in the file; negative indices count
     from the end, so [-1] is always the latest run. *)
  let resolve records i =
    let n = Array.length records in
    let k = if i < 0 then n + i else i in
    if k < 0 || k >= n then begin
      Printf.eprintf "error: run %d out of range (the ledger has %d records)\n" i n;
      exit 1
    end;
    k
  in
  let timestamp_string t =
    let tm = Unix.localtime t in
    Printf.sprintf "%04d-%02d-%02d %02d:%02d:%02d" (tm.Unix.tm_year + 1900)
      (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min tm.Unix.tm_sec
  in
  let ms v = Printf.sprintf "%.3f" (1e3 *. v) in
  let opt_ms = function Some v -> ms v | None -> "-" in
  let list_cmd =
    let run path =
      let records = load path in
      print_string
        (Choreographer.Report.table
           ~header:[ "run"; "timestamp"; "tool"; "model"; "wall ms"; "exit" ]
           (List.mapi
              (fun i (r : Obs.Ledger.record) ->
                [
                  string_of_int i;
                  timestamp_string r.Obs.Ledger.timestamp;
                  r.Obs.Ledger.tool;
                  r.Obs.Ledger.model;
                  ms r.Obs.Ledger.wall_s;
                  r.Obs.Ledger.exit_status;
                ])
              (Array.to_list records)))
    in
    Cmd.v
      (Cmd.info "list" ~doc:"List the recorded runs, oldest first.")
      Term.(const run $ ledger_file_arg)
  in
  let index_arg n doc = Arg.(required & pos n (some int) None & info [] ~docv:"RUN" ~doc) in
  let show_cmd =
    let run path i =
      let records = load path in
      let r = records.(resolve records i) in
      print_endline (Obs.Json.to_string ~pretty:true (Obs.Ledger.to_json r))
    in
    Cmd.v
      (Cmd.info "show" ~doc:"Print one recorded run as JSON.")
      Term.(const run $ ledger_file_arg $ index_arg 0 "Run index (negative = from the end).")
  in
  let diff_cmd =
    let run path a b =
      let records = load path in
      let ra = records.(resolve records a) and rb = records.(resolve records b) in
      print_string
        (Choreographer.Report.table
           ~header:[ "stage"; "A ms"; "B ms"; "delta ms"; "%" ]
           (List.map
              (fun (d : Obs.Ledger.stage_delta) ->
                [
                  d.Obs.Ledger.stage;
                  opt_ms d.Obs.Ledger.a_s;
                  opt_ms d.Obs.Ledger.b_s;
                  opt_ms d.Obs.Ledger.delta_s;
                  (match d.Obs.Ledger.pct with
                  | Some p -> Printf.sprintf "%+.1f" p
                  | None -> "-");
                ])
              (Obs.Ledger.diff_stages ra rb)));
      match Obs.Ledger.diff_metrics ra rb with
      | [] -> print_endline "metrics: identical"
      | deltas ->
          let num = function
            | Some v -> Printf.sprintf "%g" v
            | None -> "-"
          in
          print_string
            (Choreographer.Report.table
               ~header:[ "metric"; "A"; "B" ]
               (List.map
                  (fun (d : Obs.Ledger.metric_delta) ->
                    [ d.Obs.Ledger.metric; num d.Obs.Ledger.a_v; num d.Obs.Ledger.b_v ])
                  deltas))
    in
    Cmd.v
      (Cmd.info "diff"
         ~doc:"Per-stage timing and metric deltas between two recorded runs.")
      Term.(
        const run $ ledger_file_arg $ index_arg 0 "Baseline run index."
        $ index_arg 1 "Candidate run index.")
  in
  let regress_cmd =
    let threshold_arg =
      Arg.(
        value
        & opt float 1.25
        & info [ "threshold" ] ~docv:"RATIO"
            ~doc:"Flag stages slower than RATIO times their ledger median (default 1.25).")
    in
    let fail_arg =
      Arg.(
        value & flag
        & info [ "fail" ] ~doc:"Exit 3 when any stage regresses (for use as a CI gate).")
    in
    let run path threshold fail =
      if threshold <= 0.0 then begin
        Printf.eprintf "error: --threshold must be positive\n";
        exit 2
      end;
      let records = load path in
      let n = Array.length records in
      if n < 2 then begin
        Printf.eprintf "ledger %s has %d record(s); regression needs at least 2\n" path n;
        exit 1
      end;
      let latest = records.(n - 1) in
      let history = Array.to_list (Array.sub records 0 (n - 1)) in
      match Obs.Ledger.regress ~threshold ~history latest with
      | [] ->
          Printf.printf "no stage of run %d exceeds %.2fx its median over %d prior run(s)\n"
            (n - 1) threshold (n - 1)
      | regressions ->
          (* Time rows are in milliseconds; the synthetic memory row is
             in heap words and says so. *)
          let quantity (r : Obs.Ledger.regression) v =
            if r.Obs.Ledger.r_memory then Printf.sprintf "%.0f words" v else ms v
          in
          print_string
            (Choreographer.Report.table
               ~header:[ "stage"; "latest ms"; "median ms"; "ratio" ]
               (List.map
                  (fun (r : Obs.Ledger.regression) ->
                    [
                      r.Obs.Ledger.r_stage;
                      quantity r r.Obs.Ledger.latest_s;
                      quantity r r.Obs.Ledger.median_s;
                      Printf.sprintf "%.2fx" r.Obs.Ledger.ratio;
                    ])
                  regressions));
          if fail then exit 3
    in
    Cmd.v
      (Cmd.info "regress"
         ~doc:"Compare the latest run against the ledger median of every stage and of \
               its peak heap size.")
      Term.(const run $ ledger_file_arg $ threshold_arg $ fail_arg)
  in
  Cmd.group
    (Cmd.info "obs"
       ~doc:"Inspect the run ledger (the flight recorder written by pipeline and solve \
             runs).")
    [ list_cmd; show_cmd; diff_cmd; regress_cmd ]

(* ------------------------------------------------------------------ *)
(* The daemon client: the analysis verbs served by choreographerd.     *)
(*                                                                     *)
(* Each verb builds the request its one-shot command answers in        *)
(* process and sends it to the daemon, which parses and labels the     *)
(* files exactly as the one-shot engine does: same bytes, same exit    *)
(* codes.  The daemon sees only file contents, never the client's      *)
(* filesystem.                                                         *)
(* ------------------------------------------------------------------ *)

let client_socket_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "s"; "socket" ] ~docv:"PATH"
        ~doc:"Daemon socket (default: \\$CHOREOGRAPHER_SOCKET or \
              ~/.choreographer/daemon.sock).")

let client_tcp_conv =
  let parse s =
    match String.rindex_opt s ':' with
    | Some i -> (
        let host = String.sub s 0 i in
        let port = String.sub s (i + 1) (String.length s - i - 1) in
        match int_of_string_opt port with
        | Some port when port > 0 && port < 65536 && host <> "" -> Ok (host, port)
        | _ -> Error (`Msg (Printf.sprintf "invalid TCP address %s (expected HOST:PORT)" s)))
    | None -> Error (`Msg (Printf.sprintf "invalid TCP address %s (expected HOST:PORT)" s))
  in
  Arg.conv (parse, fun fmt (h, p) -> Format.fprintf fmt "%s:%d" h p)

let client_tcp_arg =
  Arg.(
    value
    & opt (some client_tcp_conv) None
    & info [ "tcp" ] ~docv:"HOST:PORT" ~doc:"Connect over TCP instead of the Unix socket.")

(* Send one request; a daemon that cannot be reached is an error with
   exit 1. *)
let remote socket tcp request =
  let connection_error msg =
    Printf.eprintf "error: %s\n" msg;
    exit 1
  in
  match Service.Client.connect ?socket ?tcp () with
  | exception Service.Client.Connection_error msg -> connection_error msg
  | conn -> (
      Fun.protect
        ~finally:(fun () -> Service.Client.close conn)
        (fun () ->
          try Service.Client.request conn request
          with Service.Client.Connection_error msg -> connection_error msg))

let client_solve_cmd =
  let run socket tcp path net options =
    Cli_support.handle_errors (fun () ->
        Cli_support.print_reply (remote socket tcp (Cli_support.solve_request ~path ~net options)))
  in
  Cmd.v
    (Cmd.info "solve" ~doc:"Solve a model on the daemon (same output as workbench solve).")
    Term.(
      const run $ client_socket_arg $ client_tcp_arg $ Cli_support.model_arg
      $ Cli_support.net_arg $ Cli_support.solve_options_term)

let client_query_cmd =
  let query_arg =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"QUERY" ~doc:"Measure expression, e.g. 'throughput(request)'.")
  in
  let run socket tcp path net query method_ aggregate =
    let options = { Service.Protocol.default_options with method_; aggregate } in
    Cli_support.handle_errors (fun () ->
        Cli_support.print_reply
          (remote socket tcp (Cli_support.query_request ~path ~net ~query options)))
  in
  Cmd.v
    (Cmd.info "query" ~doc:"Evaluate a measure expression on the daemon.")
    Term.(
      const run $ client_socket_arg $ client_tcp_arg $ Cli_support.model_arg
      $ Cli_support.net_arg $ query_arg $ Cli_support.method_arg $ Cli_support.aggregate_arg)

let client_document_cmd ~reflect_only info =
  let run socket tcp input output rates options xmltable =
    Cli_support.handle_errors (fun () ->
        let request =
          Cli_support.document_request ~reflect_only ~input ~rates
            ~xmltable:(Option.is_some xmltable) options
        in
        Cli_support.print_pipeline_reply ~output ?xmltable (remote socket tcp request))
  in
  (* reflect writes the reflected document only. *)
  let xmltable = if reflect_only then Term.const None else xmltable_arg in
  Cmd.v info
    Term.(
      const run $ client_socket_arg $ client_tcp_arg $ input_arg $ reflected_arg $ rates_arg
      $ document_options_term $ xmltable)

let client_pipeline_cmd =
  client_document_cmd ~reflect_only:false
    (Cmd.info "pipeline" ~doc:"Run the full extract-analyse-reflect tool chain on the daemon.")

let client_reflect_cmd =
  client_document_cmd ~reflect_only:true
    (Cmd.info "reflect"
       ~doc:"Analyse a UML document on the daemon and write only the reflected XMI.")

(* Sweep axes: NAME=V1,V2,... or NAME=LO:HI:N (N evenly spaced points,
   endpoints included). *)
let axis_values_of_spec spec =
  let positive_int s = match int_of_string_opt s with Some n when n >= 2 -> Some n | _ -> None in
  match String.split_on_char ':' spec with
  | [ lo; hi; n ] -> (
      match (float_of_string_opt lo, float_of_string_opt hi, positive_int n) with
      | Some lo, Some hi, Some n ->
          Some (List.init n (fun i -> lo +. ((hi -. lo) *. float_of_int i /. float_of_int (n - 1))))
      | _ -> None)
  | [ _ ] -> (
      let parts = String.split_on_char ',' spec in
      let values = List.filter_map float_of_string_opt parts in
      if List.length values = List.length parts && values <> [] then Some values else None)
  | _ -> None

let axis_conv target =
  let parse s =
    match String.index_opt s '=' with
    | Some i -> (
        let name = String.sub s 0 i in
        let spec = String.sub s (i + 1) (String.length s - i - 1) in
        match axis_values_of_spec spec with
        | Some values when name <> "" ->
            Ok { Service.Protocol.target = target name; values }
        | _ ->
            Error
              (`Msg
                (Printf.sprintf
                   "invalid axis %s (expected NAME=V1,V2,... or NAME=LO:HI:N with N >= 2)" s)))
    | None ->
        Error (`Msg (Printf.sprintf "invalid axis %s (expected NAME=VALUES)" s))
  in
  let print fmt (axis : Service.Protocol.axis) =
    Format.fprintf fmt "%s=%s"
      (match axis.Service.Protocol.target with `Rate n | `Replicas n -> n)
      (String.concat "," (List.map (Printf.sprintf "%g") axis.Service.Protocol.values))
  in
  Arg.conv (parse, print)

let client_sweep_cmd =
  let rate_axes_arg =
    Arg.(
      value
      & opt_all (axis_conv (fun n -> `Rate n)) []
      & info [ "rate" ] ~docv:"NAME=VALUES"
          ~doc:"Sweep the rate constant NAME over VALUES (V1,V2,... or LO:HI:N).  \
                Repeatable; the grid is the cartesian product of all axes.")
  in
  let replica_axes_arg =
    Arg.(
      value
      & opt_all (axis_conv (fun n -> `Replicas n)) []
      & info [ "replicas" ] ~docv:"NAME=VALUES"
          ~doc:"Sweep the replica count of component array NAME over VALUES.  Repeatable.")
  in
  let backend_arg =
    Arg.(
      value
      & opt
          (enum
             [
               ("exact", Service.Protocol.Exact);
               ("lump", Service.Protocol.Lump);
               ("fluid", Service.Protocol.Fluid_ode);
             ])
          Service.Protocol.Exact
      & info [ "backend" ] ~docv:"BACKEND"
          ~doc:"Per-point solver: $(b,exact), $(b,lump) or $(b,fluid).")
  in
  let cold_arg =
    Arg.(
      value & flag
      & info [ "cold" ]
          ~doc:"Solve every grid point from scratch instead of warm-starting each \
                point from its predecessor's solution.")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write the sweep JSON here (default: stdout).")
  in
  let run socket tcp path net options rates replicas backend cold out =
    let axes = rates @ replicas in
    if axes = [] then begin
      Printf.eprintf "error: sweep needs at least one --rate or --replicas axis\n";
      exit 2
    end;
    Cli_support.handle_errors (fun () ->
        let request =
          Service.Protocol.Sweep
            {
              kind = Cli_support.kind_of path net;
              name = Filename.basename path;
              source = Cli_support.read_source path;
              options;
              axes;
              backend;
              warm_start = not cold;
            }
        in
        let _, diagnostics, data = Cli_support.reply (remote socket tcp request) in
        Printf.eprintf "%s%!" diagnostics;
        let text = Obs.Json.to_string ~pretty:true data ^ "\n" in
        match out with
        | Some path ->
            Cli_support.write_file path text;
            Printf.printf "sweep results written to %s\n" path
        | None -> print_string text)
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:"Solve a model over a parameter grid on the daemon, warm-starting \
             successive points.")
    Term.(
      const run $ client_socket_arg $ client_tcp_arg $ Cli_support.model_arg
      $ Cli_support.net_arg $ Cli_support.solve_options_term $ rate_axes_arg
      $ replica_axes_arg $ backend_arg $ cold_arg $ out_arg)

let client_stats_cmd =
  let run socket tcp =
    let _, _, data = Cli_support.reply (remote socket tcp Service.Protocol.Stats) in
    print_endline (Obs.Json.to_string ~pretty:true data)
  in
  Cmd.v
    (Cmd.info "stats" ~doc:"Print the daemon's uptime, request and cache statistics.")
    Term.(const run $ client_socket_arg $ client_tcp_arg)

let client_shutdown_cmd =
  let run socket tcp =
    ignore (Cli_support.reply (remote socket tcp Service.Protocol.Shutdown));
    print_endline "daemon stopped"
  in
  Cmd.v
    (Cmd.info "shutdown" ~doc:"Stop the daemon cleanly.")
    Term.(const run $ client_socket_arg $ client_tcp_arg)

let client_cmd =
  Cmd.group
    (Cmd.info "client"
       ~doc:"Talk to a running choreographerd: the analysis verbs with one-shot CLI \
             output and exit codes, served from the daemon's model cache.")
    [
      client_solve_cmd;
      client_query_cmd;
      client_pipeline_cmd;
      client_reflect_cmd;
      client_sweep_cmd;
      client_stats_cmd;
      client_shutdown_cmd;
    ]

let () =
  let doc = "performance analysis of mobile UML designs via PEPA nets" in
  let info = Cmd.info "choreographer" ~version:"1.0.0" ~doc in
  exit
    (Cli_support.eval_cli
       (Cmd.group info [ pipeline_cmd; extract_cmd; info_cmd; strip_cmd; obs_cmd; client_cmd ]))
