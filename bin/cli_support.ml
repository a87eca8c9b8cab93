(* Command-line plumbing shared by the Choreographer and Workbench
   front ends: the option converters, the telemetry flags (--log-level,
   --trace, --metrics), the run ledger, the error contract, and one
   front end per analysis verb. *)

open Cmdliner

(* Each option value has one parser and one printer, in
   [Service.Protocol], shared with the daemon's request decoder. *)
let conv_of parse print =
  Arg.conv
    ( (fun s -> Result.map_error (fun msg -> `Msg msg) (parse s)),
      fun fmt v -> Format.pp_print_string fmt (print v) )

let method_conv = conv_of Service.Protocol.method_of_string Service.Protocol.method_to_string

let method_arg =
  Arg.(
    value
    & opt method_conv None
    & info [ "m"; "method" ] ~docv:"METHOD"
        ~doc:
          "Steady-state method: auto, direct, gauss-seidel, sor[:omega], power or \
           bicgstab (preconditioned Krylov iteration — usually the fastest exact method \
           on large chains).")

let aggregate_conv =
  conv_of Service.Protocol.aggregate_of_string Markov.Lump.mode_to_string

let aggregate_arg =
  Arg.(
    value
    & opt aggregate_conv Markov.Lump.No_agg
    & info [ "aggregate" ] ~docv:"MODE"
        ~doc:
          "Aggregation before the solve: $(b,none), $(b,symmetry) (collapse \
           permutation-equivalent states of replicated components while exploring), \
           $(b,lump) (solve the ordinarily-lumped quotient chain and disaggregate) or \
           $(b,both).  Every mode reports exactly the same measures: lumping only \
           merges states within one symmetry orbit or with identical local-state \
           labels, so aggregation only shrinks the chain the solver sees.")

(* ------------------------------------------------------------------ *)
(* Fluid approximation                                                 *)
(* ------------------------------------------------------------------ *)

let fluid_conv =
  conv_of Service.Protocol.tolerances_of_string Service.Protocol.tolerances_to_string

let fluid_arg =
  Arg.(
    value
    & opt ~vopt:(Some Fluid.Rk45.default_tolerances) (some fluid_conv) None
    & info [ "fluid" ] ~docv:"RTOL[,ATOL]"
        ~doc:
          "Solve PEPA models and PEPA nets by the fluid-flow ODE approximation \
           (population model + adaptive RK45) instead of a discrete solve, at a cost \
           independent of replica and token counts.  The optional value sets the \
           integrator's relative (and absolute) local-error tolerances, default \
           $(b,1e-8,1e-12); a relative tolerance above $(b,1e-4) runs at $(b,1e-4), \
           and an absolute tolerance above the steady-state threshold runs at that \
           threshold, since looser control never settles on the fixed point.  Results \
           are the deterministic population limit — asymptotically exact as \
           populations grow, not an exact solve — and are labelled as approximations \
           everywhere they are reported.  Models with passive cooperation, and nets \
           with mixed transition priorities, have no fluid interpretation.")

(* ------------------------------------------------------------------ *)
(* Telemetry flags                                                     *)
(* ------------------------------------------------------------------ *)

let level_conv =
  let parse s =
    match Obs.Config.level_of_string s with
    | Some l -> Ok l
    | None -> Error (`Msg (Printf.sprintf "unknown log level %s (quiet|info|debug)" s))
  in
  let print fmt l = Format.pp_print_string fmt (Obs.Config.level_to_string l) in
  Arg.conv (parse, print)

let log_level_arg =
  Arg.(
    value
    & opt (some level_conv) None
    & info [ "log-level" ] ~docv:"LEVEL"
        ~doc:"Diagnostic verbosity: quiet, info or debug.  info and above echo closing \
              tracing spans and progress to stderr.")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:"Write a Chrome trace_event JSON file of the run (open in chrome://tracing \
              or Perfetto).")

let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:"Write collected metrics (counters, histograms, residual trajectory) as \
              JSON or Prometheus text (see $(b,--metrics-format)).")

let metrics_format_conv =
  let parse s =
    match Obs.Sink.metrics_format_of_string s with
    | Some f -> Ok f
    | None -> Error (`Msg (Printf.sprintf "unknown metrics format %s (json|prom)" s))
  in
  let print fmt f =
    Format.pp_print_string fmt
      (match f with Obs.Sink.Json_format -> "json" | Obs.Sink.Prometheus_format -> "prom")
  in
  Arg.conv (parse, print)

let metrics_format_arg =
  Arg.(
    value
    & opt metrics_format_conv Obs.Sink.Json_format
    & info [ "metrics-format" ] ~docv:"FORMAT"
        ~doc:"Format of the $(b,--metrics) dump: $(b,json) (pretty-printed, the default) \
              or $(b,prom) (Prometheus exposition text format).")

let ledger_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "ledger" ] ~docv:"FILE"
        ~doc:"Append this run's flight record to FILE instead of the default ledger \
              (\\$CHOREOGRAPHER_LEDGER or ~/.choreographer/runs.jsonl).  Inspect it \
              with $(b,choreographer obs).")

let no_ledger_arg =
  Arg.(
    value & flag
    & info [ "no-ledger" ]
        ~doc:"Do not record this run in the ledger.  Setting the \
              \\$CHOREOGRAPHER_NO_LEDGER environment variable has the same effect \
              (used by the test suite).")

let positive_float_conv what =
  let parse s =
    match float_of_string_opt s with
    | Some v when v > 0.0 -> Ok v
    | Some _ | None -> Error (`Msg (Printf.sprintf "%s %s is not a positive number" what s))
  in
  (parse, fun fmt v -> Format.fprintf fmt "%g" v)

let sample_arg =
  Arg.(
    value
    & opt ~vopt:(Some Obs.Sampler.default_interval_s)
        (some (conv (positive_float_conv "sampling interval")))
        None
    & info [ "sample" ] ~docv:"SECONDS"
        ~doc:"Run a background sampler domain during the command: every SECONDS \
              (default $(b,0.01)) it records heap size, GC counts, the live solver \
              residual and the exploration frontier as time series, which the metrics \
              dump, the HTML report and the Chrome trace then chart.")

(* ------------------------------------------------------------------ *)
(* Run ledger plumbing                                                 *)
(* ------------------------------------------------------------------ *)

(* The ledger records one JSON line per run.  [setup_telemetry] decides
   the destination; subcommands that analyse a model call [arm_ledger]
   with their identity before reading it, the engine's outcome supplies
   the model hash and the status ([in_process]), and the [at_exit] hook
   appends the record — so error exits are recorded too, with the
   status the error reporters left in [run_status]. *)
let ledger_path : string option ref = ref None
let ledger_armed : (string * string * (string * string) list) option ref = ref None
let ledger_hash = ref ""
let run_status = ref "ok"
let set_run_status s = run_status := s
let arm_ledger ~tool ~model ~options = ledger_armed := Some (tool, model, options)

(* Warn about a file the run writes at exit that cannot be written; the
   run's own exit status stands. *)
let warn_unwritable what path write =
  let warn msg = Printf.eprintf "warning: could not %s %s: %s\n%!" what path msg in
  try write () with
  | Sys_error msg -> warn msg
  | Unix.Unix_error (e, _, _) -> warn (Unix.error_message e)

let append_ledger () =
  match (!ledger_path, !ledger_armed) with
  | Some path, Some (tool, model, options) ->
      let record =
        Obs.Ledger.capture ~tool ~model ~model_hash:!ledger_hash ~options
          ~exit_status:!run_status ()
      in
      warn_unwritable "append to ledger" path (fun () -> Obs.Ledger.append ~path record)
  | _ -> ()

(* Where the daemon should append its per-request records: the
   destination the telemetry flags resolved to, or [None] when
   recording is off.  The daemon never uses the [at_exit] capture
   path — it emits one record per served request instead. *)
let daemon_ledger_path () = !ledger_path

let ledger_disabled_by_env () =
  match Sys.getenv_opt "CHOREOGRAPHER_NO_LEDGER" with
  | Some "" | None -> false
  | Some _ -> true

(* Configure the process-global telemetry state.  File writers run
   [at_exit] so traces survive error exits too; [at_exit] runs hooks in
   reverse registration order, so the sampler (registered last) stops
   first and the sinks and the ledger see its final samples. *)
let setup_telemetry level trace metrics metrics_format ledger no_ledger sample =
  (match level with Some l -> Obs.Config.set_level l | None -> ());
  let ledger_on = (not no_ledger) && not (ledger_disabled_by_env ()) in
  if ledger_on then
    ledger_path :=
      Some (match ledger with Some p -> p | None -> Obs.Ledger.default_path ());
  if level <> None || trace <> None || metrics <> None || sample <> None || ledger_on then
    Obs.Config.enable ();
  if Obs.Config.at_least Obs.Config.Info then Obs.Sink.install_stderr ();
  at_exit append_ledger;
  (match trace with
  | Some path ->
      at_exit (fun () ->
          warn_unwritable "write trace" path (fun () -> Obs.Sink.write_chrome_trace ~path))
  | None -> ());
  (match metrics with
  | Some path ->
      at_exit (fun () ->
          warn_unwritable "write metrics" path (fun () ->
              Obs.Sink.write_metrics ~format:metrics_format ~path ()))
  | None -> ());
  match sample with
  | Some interval_s ->
      let sampler = Obs.Sampler.start ~interval_s () in
      at_exit (fun () -> Obs.Sampler.stop sampler)
  | None -> ()

let telemetry_term =
  Term.(
    const setup_telemetry $ log_level_arg $ trace_arg $ metrics_arg $ metrics_format_arg
    $ ledger_arg $ no_ledger_arg $ sample_arg)

(* ------------------------------------------------------------------ *)
(* The error contract                                                  *)
(* ------------------------------------------------------------------ *)

let fail ~status ~code message =
  Printf.eprintf "%s%!" message;
  set_run_status status;
  exit code

(* Every failure [Service.Errors.of_exn] maps — model errors (exit 1),
   non-convergence and its fluid kin (exit 2, so scripted callers can
   retry with another method) — ends the run with the rendering the
   daemon ships over the wire: the same stderr bytes, ledger status and
   exit code.  A file that cannot be read or written is a model error
   ([error: MSG], exit 1).  Any other exception escapes unchanged. *)
let handle_errors f =
  try f ()
  with e -> (
    let backtrace = Printexc.get_raw_backtrace () in
    let rendered =
      match e with
      | Sys_error msg -> Some (Service.Errors.model_error msg)
      | e -> Service.Errors.of_exn e
    in
    match rendered with
    | Some { Service.Errors.code; message; status } -> fail ~status ~code message
    | None -> Printexc.raise_with_backtrace e backtrace)

(* Invalid option values (unknown --method, --aggregate, --fluid forms,
   ...) exit 2 rather than cmdliner's default 124, so scripts can treat
   "the request was wrong" uniformly.  The converters above enumerate
   the valid choices in their error messages. *)
let eval_cli ?argv cmd =
  match Cmdliner.Cmd.eval_value ?argv cmd with
  | Ok (`Ok ()) | Ok `Version | Ok `Help -> 0
  | Error (`Parse | `Term) -> 2
  | Error `Exn -> 125

(* ------------------------------------------------------------------ *)
(* Analysis verbs                                                      *)
(* ------------------------------------------------------------------ *)

(* Each analysis verb turns its arguments into one
   [Service.Protocol.request] and the response into stdout, stderr,
   written files and the exit code.  pepa-workbench solve|query and
   choreographer pipeline answer the request with an engine created in
   this process ([in_process]); choreographer client sends it to a
   daemon.  The transport is the only difference, so both print the
   same bytes, and nothing is parsed before the engine parses it. *)

let is_net_file path explicit_net = explicit_net || Filename.check_suffix path ".pepanet"

let model_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"MODEL" ~doc:"A .pepa or .pepanet file.")

let net_arg =
  Arg.(value & flag & info [ "net" ] ~doc:"Force PEPA net interpretation regardless of suffix.")

let solve_options_term =
  let make method_ aggregate fluid =
    { Service.Protocol.default_options with method_; aggregate; fluid }
  in
  Term.(const make $ method_arg $ aggregate_arg $ fluid_arg)

let read_source path = In_channel.with_open_bin path In_channel.input_all

(* A document or rates file that cannot be read is reported as one that
   does not parse: the bare message, exit 1. *)
let read_input path =
  try read_source path with Sys_error msg -> fail ~status:("error: " ^ msg) ~code:1 (msg ^ "\n")

let kind_of path net = if is_net_file path net then Service.Protocol.Net else Service.Protocol.Pepa

let solve_request ~path ~net options =
  Service.Protocol.Solve
    { kind = kind_of path net; name = Filename.basename path; source = read_source path; options }

let query_request ~path ~net ~query options =
  Service.Protocol.Query
    {
      kind = kind_of path net;
      name = Filename.basename path;
      source = read_source path;
      query;
      options;
    }

(* The document is named by its path as the user gave it, which labels
   its errors and names a text document's model; the rates file, read
   first, by its own path.  A pipeline asks for the .xmltable document
   only when it will write one. *)
let document_request ~reflect_only ~input ~rates ~xmltable options =
  let rates_source = Option.map read_input rates in
  let document = read_input input in
  if reflect_only then
    Service.Protocol.Reflect
      { name = input; document; rates = rates_source; rates_name = rates; options }
  else
    Service.Protocol.Pipeline
      { name = input; document; rates = rates_source; rates_name = rates; options; xmltable }

(* Answer a request with an engine created for this run; the ledger
   takes the model hash and the status from its outcome. *)
let in_process request =
  let outcome = Service.Engine.handle (Service.Engine.create ()) request in
  ledger_hash := outcome.Service.Engine.model_hash;
  set_run_status outcome.Service.Engine.status;
  outcome

(* An error response carries the stderr bytes and exit code the
   analysis ended with. *)
let reply = function
  | Service.Protocol.Ok_response { output; diagnostics; data } -> (output, diagnostics, data)
  | Service.Protocol.Error_response { code; message } ->
      Printf.eprintf "%s%!" message;
      exit code

(* solve and query *)
let print_reply response =
  let output, diagnostics, _ = reply response in
  print_string output;
  Printf.eprintf "%s%!" diagnostics

let data_field field data =
  match Obs.Json.member field data with
  | Some (Obs.Json.Str s) -> s
  | _ ->
      Printf.eprintf "error: malformed daemon response (missing %s)\n" field;
      exit 125

let write_file path contents =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc contents)

(* pipeline and reflect: a reflect response has no tables, and only a
   pipeline answered in process has the [outcome] an HTML report
   needs. *)
let print_pipeline_reply ~output ?xmltable ?html ?outcome response =
  let tables, diagnostics, data = reply response in
  Printf.eprintf "%s%!" diagnostics;
  write_file output (data_field "reflected" data);
  print_string tables;
  Option.iter (fun path -> write_file path (data_field "xmltable" data)) xmltable;
  (match (html, outcome) with
  | Some path, Some outcome -> Choreographer.Html_report.write ~path outcome
  | _ -> ());
  Printf.printf "reflected model written to %s\n" output
