(* The built pepa-workbench subcommands that read the transition stream
   (check, statespace, transient, graph, passage, query, export) and
   solve pinned byte for byte against recorded output in test/golden,
   plus the CLIs' handling of hostile nesting and of 200,000-definition
   models under a capped stack, the daemon client held to the one-shot
   commands byte for byte, and the failure paths' exit codes and
   ledger status. *)

let asset name = Test_service.asset name
let read_file = Test_service.read_file

let absolute path = if Filename.is_relative path then Filename.concat (Sys.getcwd ()) path else path

(* Run [exe args] in a fresh directory, after the shell assignments
   [env]; returns the exit code, stdout, stderr, and every file the run
   wrote there, sorted by name. *)
let run_in_temp_dir ?(env = "") exe args =
  let dir = Filename.temp_dir "workbench" ".out" in
  let stdout = Filename.concat dir "stdout" and stderr = Filename.concat dir "stderr" in
  let command = Filename.quote_command (absolute exe) ~stdout ~stderr args in
  let code = Sys.command (Printf.sprintf "cd %s && %s %s" (Filename.quote dir) env command) in
  let out = read_file stdout and err = read_file stderr in
  Sys.remove stdout;
  Sys.remove stderr;
  let files =
    List.map
      (fun name ->
        let path = Filename.concat dir name in
        let contents = read_file path in
        Sys.remove path;
        (name, contents))
      (List.sort compare (Array.to_list (Sys.readdir dir)))
  in
  Sys.rmdir dir;
  (code, out, err, files)

let golden name = read_file (Filename.concat "golden" name)

(* [(golden stem, subcommand, further arguments)] for one model; the
   model path goes right after the subcommand. *)
let check_pinned model cases =
  let exe = Test_service.built_exe "workbench_main.exe" in
  List.iter
    (fun (stem, sub, args) ->
      let name = model ^ "." ^ stem in
      let code, out, _, files = run_in_temp_dir exe (sub :: absolute (asset model) :: args) in
      Alcotest.(check int) (name ^ " exits 0") 0 code;
      Alcotest.(check string) (name ^ " stdout") (golden (name ^ ".out")) out;
      List.iter
        (fun (file, contents) ->
          Alcotest.(check string) (name ^ " writes " ^ file) (golden (name ^ "." ^ file)) contents)
        files)
    cases

let test_pepa_pinned () =
  check_pinned "mm1k.pepa"
    [
      ("check", "check", []);
      ("statespace", "statespace", []);
      ("transient", "transient", [ "-t"; "1" ]);
      ("graph", "graph", []);
      ("passage", "passage", [ "-a"; "arrive" ]);
      ("query", "query", [ "passage(arrive -> serve).mean" ]);
      ("export", "export", [ "-o"; "base" ]);
    ]

let test_net_pinned () =
  check_pinned "instant_message.pepanet"
    [
      ("check", "check", []);
      ("statespace", "statespace", []);
      ("transient", "transient", [ "-t"; "1" ]);
      ("graph", "graph", []);
      ("graph_structure", "graph", [ "--kind"; "structure" ]);
      ("passage", "passage", [ "-a"; "transmit" ]);
      ("query", "query", [ "passage(transmit -> sendback).mean" ]);
      ("export", "export", [ "-o"; "base" ]);
    ]

(* [solve] pinned on its stdout and stderr (the solver's method,
   sweep count and residual, which move with any change to an
   iterate's arithmetic): the symmetric replicated model and the net
   with interchangeable cells (960 markings, 288 under symmetry) under
   both aggregation passes, with the net's reduced marking list, and a
   2,197-state tandem under the stationary sweeps and power
   iteration.  The tandem is
   written as [tandem12.pepa] in a fresh directory, since [solve]
   prints the model's file name. *)
let test_solve_pinned () =
  let exe = Test_service.built_exe "workbench_main.exe" in
  let dir = Filename.temp_dir "solve" ".in" in
  let tandem = Filename.concat dir "tandem12.pepa" in
  Out_channel.with_open_bin tandem (fun oc ->
      Out_channel.output_string oc (Scenarios.Tandem.source ~stations:3 ~capacity:12));
  Fun.protect
    ~finally:(fun () ->
      Sys.remove tandem;
      Sys.rmdir dir)
    (fun () ->
      List.iter
        (fun (name, sub, path, args) ->
          let code, out, err, _ = run_in_temp_dir exe (sub :: absolute path :: args) in
          Alcotest.(check int) (name ^ " exits 0") 0 code;
          Alcotest.(check string) (name ^ " stdout") (golden (name ^ ".out")) out;
          Alcotest.(check string) (name ^ " stderr") (golden (name ^ ".err")) err)
        [
          ( "roaming.pepa.solve_symmetry",
            "solve",
            asset "roaming.pepa",
            [ "--aggregate"; "symmetry" ] );
          ( "roaming.pepa.solve_both_bicgstab",
            "solve",
            asset "roaming.pepa",
            [ "--aggregate"; "both"; "--method"; "bicgstab" ] );
          ( "roaming.pepanet.solve_symmetry",
            "solve",
            asset "roaming.pepanet",
            [ "--aggregate"; "symmetry" ] );
          ( "roaming.pepanet.solve_both_bicgstab",
            "solve",
            asset "roaming.pepanet",
            [ "--aggregate"; "both"; "--method"; "bicgstab" ] );
          ( "roaming.pepanet.statespace_symmetry",
            "statespace",
            asset "roaming.pepanet",
            [ "--aggregate"; "symmetry" ] );
          ("tandem12.pepa.solve_gauss_seidel", "solve", tandem, [ "--method"; "gauss-seidel" ]);
          ("tandem12.pepa.solve_sor_1.2", "solve", tandem, [ "--method"; "sor:1.2" ]);
          ("tandem12.pepa.solve_power", "solve", tandem, [ "--method"; "power" ]);
        ])

let temp_file suffix contents =
  let path = Filename.temp_file "deep" suffix in
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc contents);
  path

(* Run a built CLI under a 256k-word stack; returns the exit code, stdout
   and stderr. *)
let run_capped cli args =
  let out = Filename.temp_file "deep" ".out" and err = Filename.temp_file "deep" ".err" in
  Fun.protect
    ~finally:(fun () -> List.iter Sys.remove [ out; err ])
    (fun () ->
      let command =
        Filename.quote_command (Test_service.built_exe cli) ~stdout:out ~stderr:err args
      in
      let code = Sys.command ("OCAMLRUNPARAM=l=256k " ^ command) in
      (code, read_file out, read_file err))

(* 200,000 nested parentheses, activity prefixes, choice alternatives,
   cooperation members or elements under a 256k-word stack: the
   parsers' caps turn what used to be a stack overflow (exit 125) into
   an ordinary malformed-input report (exit 1).  A choice of exactly
   512 alternatives and a cooperation of exactly 512 members still
   check. *)
let test_deep_nesting_rejected () =
  let depth = 200_000 in
  let model =
    temp_file ".pepa"
      ("P = (a, 1.0).P;\nsystem " ^ String.make depth '(' ^ "P" ^ String.make depth ')' ^ ";\n")
  in
  let buf = Buffer.create (9 * depth) in
  Buffer.add_string buf "P = ";
  for _ = 1 to depth do
    Buffer.add_string buf "(a, 1.0)."
  done;
  Buffer.add_string buf "P;\n";
  let chain = temp_file ".pepa" (Buffer.contents buf) in
  let choice n =
    temp_file ".pepa" ("P = " ^ String.concat " + " (List.init n (fun _ -> "(a, 1.0).P")) ^ ";\n")
  in
  let cooperation n =
    temp_file ".pepa"
      ("P = (a, 1.0).P;\nsystem " ^ String.concat " <> " (List.init n (fun _ -> "P")) ^ ";\n")
  in
  let chains = [ ("choice", choice depth); ("cooperation", cooperation depth) ] in
  let at_cap = [ ("choice", choice 512); ("cooperation", cooperation 512) ] in
  let buf = Buffer.create (8 * depth) in
  Buffer.add_string buf "<?xml version=\"1.0\"?>\n";
  for _ = 1 to depth do
    Buffer.add_string buf "<a>"
  done;
  for _ = 1 to depth do
    Buffer.add_string buf "</a>"
  done;
  let document = temp_file ".xmi" (Buffer.contents buf) in
  Fun.protect
    ~finally:(fun () ->
      List.iter Sys.remove ([ model; chain; document ] @ List.map snd (chains @ at_cap)))
    (fun () ->
      List.iter
        (fun (what, path) ->
          let code, _, err = run_capped "workbench_main.exe" [ "solve"; path ] in
          Alcotest.(check int) (what ^ ": solve exits 1") 1 code;
          Alcotest.(check bool) (what ^ ": solve reports an error: " ^ err) true
            (Test_service.has_prefix "error: " err && Test_service.has_infix "nested deeper" err))
        [ ("parentheses", model); ("prefixes", chain) ];
      List.iter
        (fun (what, path) ->
          let code, _, err = run_capped "workbench_main.exe" [ "check"; path ] in
          Alcotest.(check int) (what ^ ": check exits 1") 1 code;
          Alcotest.(check bool) (what ^ ": check reports a parse error: " ^ err) true
            (Test_service.has_prefix "error: " err
            && Test_service.has_infix "parse error at " err
            && Test_service.has_infix "more than 512" err))
        chains;
      List.iter
        (fun (what, path) ->
          let code, _, err = run_capped "workbench_main.exe" [ "check"; path ] in
          Alcotest.(check int) (what ^ " of 512: check exits 0: " ^ err) 0 code)
        at_cap;
      let code, _, err = run_capped "choreographer_main.exe" [ "info"; "-i"; document ] in
      Alcotest.(check int) "info exits 1" 1 code;
      Alcotest.(check bool) ("info reports an XML error: " ^ err) true
        (Test_service.has_infix "XML error" err && Test_service.has_infix "nested deeper" err))

(* 200,000 definitions under the same stack, as a cycle of sequential
   definitions and as a chain of model-level aliases: classification,
   alphabets, the recursion check and the derivation of the sequential
   component all walk the definition graph without recursing once per
   definition.  The cycle's actions repeat every 1,000 definitions;
   200,000 distinct ones would exceed the transition stream's label
   budget. *)
let test_long_chains_checked () =
  let n = 200_000 in
  let cycle = Buffer.create (32 * n) and aliases = Buffer.create (16 * n) in
  Buffer.add_string cycle "r = 1.0;\n";
  Buffer.add_string aliases "P = (a, 1.0).P;\n";
  for i = 0 to n - 1 do
    Printf.bprintf cycle "P%07d = (a%d, r).P%07d;\n" i (i mod 1000) ((i + 1) mod n);
    if i < n - 1 then Printf.bprintf aliases "M%07d = M%07d;\n" i (i + 1)
    else Printf.bprintf aliases "M%07d = P <a> P;\n" i
  done;
  Buffer.add_string cycle "system P0000000;\n";
  Buffer.add_string aliases "system M0000000;\n";
  List.iter
    (fun (what, text, expected) ->
      let model = temp_file ".pepa" (Buffer.contents text) in
      Fun.protect
        ~finally:(fun () -> Sys.remove model)
        (fun () ->
          let code, out, err = run_capped "workbench_main.exe" [ "check"; model ] in
          Alcotest.(check int) (what ^ ": check exits 0: " ^ err) 0 code;
          Alcotest.(check bool) (what ^ ": " ^ expected) true (Test_service.has_prefix expected out)))
    [
      ("cycle", cycle, "200000 states, 200000 transitions");
      ("aliases", aliases, "1 states, 1 transitions");
    ]

(* ------------------------------------------------------------------ *)
(* The daemon client against the one-shot commands                     *)
(* ------------------------------------------------------------------ *)

let same_run what (code, out, err, files) (code', out', err', files') =
  Alcotest.(check int) (what ^ ": exit") code code';
  Alcotest.(check string) (what ^ ": stdout") out out';
  Alcotest.(check string) (what ^ ": stderr") err err';
  Alcotest.(check (list (pair string string))) (what ^ ": written files") files files'

(* Each client verb against a live daemon prints what its one-shot
   command prints for the same files: stdout, stderr, exit code and
   written files, malformed models, documents and rates included.
   reflect is held to pipeline on everything but the tables.  The
   daemon, not the client, parses the documents: its ledger records
   the malformed XMI's request with the XML error. *)
let test_client_matches_one_shot () =
  let bad_model = temp_file ".pepa" "P = (a, 1.0).;"
  and bad_xmi = temp_file ".uml" "<XMI><unclosed></XMI>"
  and text = temp_file ".uml" Test_diagram_text.pda_text
  and bad_text = temp_file ".uml" "activity A {\n  bogus bogus;\n}\n"
  and bad_rates = temp_file ".rates" "download = = 1\n" in
  let model name = absolute (asset name) in
  let pda = model "pda.uml" and rates = model "pda.rates" in
  let documents =
    [
      [ "-i"; pda; "-r"; rates ];
      [ "-i"; model "web.uml" ];
      [ "-i"; text ];
      [ "-i"; bad_xmi; "-r"; rates ];
      [ "-i"; bad_text ];
      [ "-i"; pda; "-r"; bad_rates ];
    ]
  in
  let choreographer = Test_service.built_exe "choreographer_main.exe"
  and workbench = Test_service.built_exe "workbench_main.exe" in
  Fun.protect
    ~finally:(fun () -> List.iter Sys.remove [ bad_model; bad_xmi; text; bad_text; bad_rates ])
    (fun () ->
      Test_service.with_server (fun ~socket ~ledger ->
          let client verb args =
            run_in_temp_dir choreographer ("client" :: verb :: "-s" :: socket :: args)
          in
          List.iter
            (fun (verb, args) ->
              same_run
                (String.concat " " (verb :: args))
                (run_in_temp_dir workbench (verb :: args))
                (client verb args))
            [
              ("solve", [ model "mm1k.pepa" ]);
              ("solve", [ model "instant_message.pepanet"; "--method"; "sor:1.2" ]);
              ("solve", [ model "roaming.pepa"; "--aggregate"; "both" ]);
              ("solve", [ model "pool.pepa"; "--fluid" ]);
              ("solve", [ bad_model ]);
              ("query", [ model "mm1k.pepa"; "throughput(serve)" ]);
              ("query", [ model "instant_message.pepanet"; "throughput(transmit)" ]);
              ("query", [ model "mm1k.pepa"; "throughput(serve" ]);
              ("query", [ bad_model; "throughput(a)" ]);
            ];
          List.iter
            (fun args ->
              let what = String.concat " " args in
              let code, out, err, files =
                run_in_temp_dir choreographer
                  ("pipeline" :: args @ [ "-o"; "out.xmi"; "--xmltable"; "out.xmltable" ])
              in
              same_run ("pipeline " ^ what) (code, out, err, files)
                (client "pipeline" (args @ [ "-o"; "out.xmi"; "--xmltable"; "out.xmltable" ]));
              let reflected = List.filter (fun (name, _) -> name = "out.xmi") files in
              let code', _, err', files' = client "reflect" (args @ [ "-o"; "out.xmi" ]) in
              Alcotest.(check int) ("reflect " ^ what ^ ": exit") code code';
              Alcotest.(check string) ("reflect " ^ what ^ ": stderr") err err';
              Alcotest.(check (list (pair string string)))
                ("reflect " ^ what ^ ": reflected document")
                reflected files')
            documents;
          let parsed_by_daemon (r : Obs.Ledger.record) =
            r.Obs.Ledger.tool = "choreographerd pipeline"
            && r.Obs.Ledger.model = bad_xmi
            && Test_service.has_prefix (Printf.sprintf "error: %s: XML error" bad_xmi)
                 r.Obs.Ledger.exit_status
          in
          Alcotest.(check bool) "the daemon parsed the malformed XMI" true
            (List.exists parsed_by_daemon (Obs.Ledger.load ~path:ledger))))

(* Two files with the same bytes under different names: the daemon
   keys its cache on the name too, so each reply names its own file as
   the one-shot solve does, and the daemon holds two entries. *)
let test_client_names_each_model () =
  let dir = Filename.temp_dir "names" ".in" in
  let paths = List.map (Filename.concat dir) [ "a.pepa"; "b.pepa" ] in
  List.iter
    (fun path ->
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc (read_file (asset "mm1k.pepa"))))
    paths;
  Fun.protect
    ~finally:(fun () ->
      List.iter Sys.remove paths;
      Sys.rmdir dir)
    (fun () ->
      Test_service.with_server (fun ~socket ~ledger:_ ->
          List.iter
            (fun path ->
              let ((_, out, _, _) as one_shot) =
                run_in_temp_dir (Test_service.built_exe "workbench_main.exe") [ "solve"; path ]
              in
              Alcotest.(check bool) (path ^ " named in the output") true
                (Test_service.has_prefix (Filename.basename path ^ " (pepa)") out);
              same_run path one_shot
                (run_in_temp_dir
                   (Test_service.built_exe "choreographer_main.exe")
                   [ "client"; "solve"; "-s"; socket; path ]))
            paths;
          match Test_service.request_over socket Service.Protocol.Stats with
          | Service.Protocol.Ok_response { data; _ } ->
              Alcotest.(check (option (float 0.0)))
                "two cache entries" (Some 2.0)
                (Option.bind
                   (Option.bind (Obs.Json.member "cache" data) (Obs.Json.member "entries"))
                   Obs.Json.to_float)
          | Service.Protocol.Error_response { message; _ } -> Alcotest.fail message))

(* A malformed XMI document and a malformed rates file leave an
   [error: ...] status in the ledger, not "ok". *)
let test_failed_ingest_recorded () =
  let ledger = Filename.temp_file "runs" ".jsonl" in
  Sys.remove ledger;
  let bad_xmi = temp_file ".uml" "<XMI><unclosed></XMI>"
  and bad_rates = temp_file ".rates" "download = = 1\n" in
  Fun.protect
    ~finally:(fun () ->
      List.iter Sys.remove [ bad_xmi; bad_rates ];
      if Sys.file_exists ledger then Sys.remove ledger)
    (fun () ->
      List.iter
        (fun args ->
          let code, _, _, _ =
            run_in_temp_dir ~env:"CHOREOGRAPHER_NO_LEDGER="
              (Test_service.built_exe "choreographer_main.exe")
              ([ "pipeline"; "-o"; "out.xmi"; "--ledger"; ledger ] @ args)
          in
          Alcotest.(check int) (String.concat " " args ^ ": exit") 1 code)
        [ [ "-i"; bad_xmi ]; [ "-i"; absolute (asset "pda.uml"); "-r"; bad_rates ] ];
      match Obs.Ledger.load ~path:ledger with
      | [ xmi; rates ] ->
          List.iter
            (fun (what, expected, (record : Obs.Ledger.record)) ->
              Alcotest.(check bool) (what ^ ": " ^ record.Obs.Ledger.exit_status) true
                (Test_service.has_prefix expected record.Obs.Ledger.exit_status))
            [
              ("malformed XMI status", "error: " ^ bad_xmi ^ ": XML error at ", xmi);
              ("malformed rates status", "error: " ^ bad_rates ^ ": line 1: ", rates);
            ]
      | records -> Alcotest.failf "expected 2 ledger records, found %d" (List.length records))

(* Outputs that cannot be written end the run with [error: MSG] and
   exit 1, not an uncaught exception; trace and metrics files written
   at exit only warn, and the run keeps its exit status. *)
let test_unwritable_outputs () =
  let file = temp_file ".txt" "" in
  let nowhere = Filename.concat file "out" in
  let pda = absolute (asset "pda.uml") and mm1k = absolute (asset "mm1k.pepa") in
  let choreographer = Test_service.built_exe "choreographer_main.exe"
  and workbench = Test_service.built_exe "workbench_main.exe" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      List.iter
        (fun (exe, args) ->
          let what = String.concat " " args in
          let code, _, err, _ = run_in_temp_dir exe args in
          Alcotest.(check int) (what ^ ": exit") 1 code;
          Alcotest.(check bool) (what ^ ": error: " ^ err) true
            (Test_service.has_infix ("error: " ^ nowhere) err))
        [
          ( choreographer,
            [ "pipeline"; "-i"; pda; "-r"; absolute (asset "pda.rates"); "-o"; nowhere ] );
          (choreographer, [ "strip"; "-i"; pda; "-o"; nowhere ]);
          (choreographer, [ "extract"; "-i"; pda; "-o"; nowhere ]);
          (workbench, [ "graph"; mm1k; "-o"; nowhere ]);
          (workbench, [ "export"; mm1k; "-o"; nowhere ]);
        ];
      let _, plain, _, _ = run_in_temp_dir workbench [ "solve"; mm1k ] in
      List.iter
        (fun (flag, what, model, expected) ->
          let code, out, err, _ = run_in_temp_dir workbench [ "solve"; model; flag; nowhere ] in
          Alcotest.(check int) (flag ^ ": exit") expected code;
          if expected = 0 then Alcotest.(check string) (flag ^ ": stdout") plain out;
          Alcotest.(check bool) (flag ^ ": warning: " ^ err) true
            (Test_service.has_infix
               (Printf.sprintf "warning: could not write %s %s: " what nowhere)
               err))
        [
          ("--trace", "trace", mm1k, 0);
          ("--metrics", "metrics", mm1k, 0);
          ("--trace", "trace", file, 1);
        ])

let suite =
  [
    Alcotest.test_case "mm1k.pepa subcommands pinned" `Quick test_pepa_pinned;
    Alcotest.test_case "instant_message.pepanet pinned" `Quick test_net_pinned;
    Alcotest.test_case "solve output pinned" `Quick test_solve_pinned;
    Alcotest.test_case "deep nesting exits 1" `Quick test_deep_nesting_rejected;
    Alcotest.test_case "200,000-definition chains check" `Quick test_long_chains_checked;
    Alcotest.test_case "client = one-shot bytes" `Quick test_client_matches_one_shot;
    Alcotest.test_case "daemon cache keys on the name" `Quick test_client_names_each_model;
    Alcotest.test_case "failed ingest is recorded" `Quick test_failed_ingest_recorded;
    Alcotest.test_case "unwritable outputs exit 1" `Quick test_unwritable_outputs;
  ]
