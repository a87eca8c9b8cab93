(* The built pepa-workbench subcommands that read the transition stream
   (check, statespace, transient, graph, passage, query, export) and
   solve pinned byte for byte against recorded output in test/golden,
   plus the CLIs' handling of hostile nesting and of 200,000-definition
   models under a capped stack. *)

let asset name = Test_service.asset name
let read_file = Test_service.read_file

let absolute path = if Filename.is_relative path then Filename.concat (Sys.getcwd ()) path else path

(* Run [exe args] in a fresh directory; returns the exit code, stdout,
   stderr, and every file the run wrote there, sorted by name. *)
let run_in_temp_dir exe args =
  let dir = Filename.temp_dir "workbench" ".out" in
  let stdout = Filename.concat dir "stdout" and stderr = Filename.concat dir "stderr" in
  let command = Filename.quote_command (absolute exe) ~stdout ~stderr args in
  let code = Sys.command (Printf.sprintf "cd %s && %s" (Filename.quote dir) command) in
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

(* 200,000 nested parentheses, activity prefixes or elements under a
   256k-word stack: the parsers' nesting caps turn what used to be a
   stack overflow (exit 125) into an ordinary malformed-input report
   (exit 1). *)
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
    ~finally:(fun () -> List.iter Sys.remove [ model; chain; document ])
    (fun () ->
      List.iter
        (fun (what, path) ->
          let code, _, err = run_capped "workbench_main.exe" [ "solve"; path ] in
          Alcotest.(check int) (what ^ ": solve exits 1") 1 code;
          Alcotest.(check bool) (what ^ ": solve reports an error: " ^ err) true
            (Test_service.has_prefix "error: " err && Test_service.has_infix "nested deeper" err))
        [ ("parentheses", model); ("prefixes", chain) ];
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

let suite =
  [
    Alcotest.test_case "mm1k.pepa subcommands pinned" `Quick test_pepa_pinned;
    Alcotest.test_case "instant_message.pepanet pinned" `Quick test_net_pinned;
    Alcotest.test_case "solve output pinned" `Quick test_solve_pinned;
    Alcotest.test_case "deep nesting exits 1" `Quick test_deep_nesting_rejected;
    Alcotest.test_case "200,000-definition chains check" `Quick test_long_chains_checked;
  ]
