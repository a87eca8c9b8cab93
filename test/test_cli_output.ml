(* The built pepa-workbench subcommands that read the transition stream
   (check, statespace, transient, graph, passage, query, export) pinned
   byte for byte against recorded output in test/golden, plus the CLIs'
   handling of hostile nesting under a capped stack. *)

let asset name = Test_service.asset name
let read_file = Test_service.read_file

let absolute path = if Filename.is_relative path then Filename.concat (Sys.getcwd ()) path else path

(* Run [exe args] in a fresh directory; returns the exit code, stdout,
   and every file the run wrote there, sorted by name. *)
let run_in_temp_dir exe args =
  let dir = Filename.temp_dir "workbench" ".out" in
  let stdout = Filename.concat dir "stdout" in
  let command = Filename.quote_command (absolute exe) ~stdout args in
  let code = Sys.command (Printf.sprintf "cd %s && %s" (Filename.quote dir) command) in
  let out = read_file stdout in
  Sys.remove stdout;
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
  (code, out, files)

let golden name = read_file (Filename.concat "golden" name)

(* [(golden stem, subcommand, further arguments)] for one model; the
   model path goes right after the subcommand. *)
let check_pinned model cases =
  let exe = Test_service.built_exe "workbench_main.exe" in
  List.iter
    (fun (stem, sub, args) ->
      let name = model ^ "." ^ stem in
      let code, out, files = run_in_temp_dir exe (sub :: absolute (asset model) :: args) in
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

(* 200,000 nested parentheses or elements under a 256k-word stack: the
   parsers' nesting caps turn what used to be a stack overflow (exit
   125) into an ordinary malformed-input report (exit 1). *)
let test_deep_nesting_rejected () =
  let depth = 200_000 in
  let temp suffix contents =
    let path = Filename.temp_file "deep" suffix in
    Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc contents);
    path
  in
  let model =
    temp ".pepa"
      ("P = (a, 1.0).P;\nsystem " ^ String.make depth '(' ^ "P" ^ String.make depth ')' ^ ";\n")
  in
  let buf = Buffer.create (8 * depth) in
  Buffer.add_string buf "<?xml version=\"1.0\"?>\n";
  for _ = 1 to depth do
    Buffer.add_string buf "<a>"
  done;
  for _ = 1 to depth do
    Buffer.add_string buf "</a>"
  done;
  let document = temp ".xmi" (Buffer.contents buf) in
  let run cli args =
    let err = Filename.temp_file "deep" ".err" in
    Fun.protect
      ~finally:(fun () -> Sys.remove err)
      (fun () ->
        let command =
          Filename.quote_command (Test_service.built_exe cli) ~stdout:Filename.null ~stderr:err
            args
        in
        let code = Sys.command ("OCAMLRUNPARAM=l=256k " ^ command) in
        (code, read_file err))
  in
  Fun.protect
    ~finally:(fun () -> List.iter Sys.remove [ model; document ])
    (fun () ->
      let code, err = run "workbench_main.exe" [ "solve"; model ] in
      Alcotest.(check int) "solve exits 1" 1 code;
      Alcotest.(check bool) ("solve reports an error: " ^ err) true
        (Test_service.has_prefix "error: " err && Test_service.has_infix "nested deeper" err);
      let code, err = run "choreographer_main.exe" [ "info"; "-i"; document ] in
      Alcotest.(check int) "info exits 1" 1 code;
      Alcotest.(check bool) ("info reports an XML error: " ^ err) true
        (Test_service.has_infix "XML error" err && Test_service.has_infix "nested deeper" err))

let suite =
  [
    Alcotest.test_case "mm1k.pepa subcommands pinned" `Quick test_pepa_pinned;
    Alcotest.test_case "instant_message.pepanet pinned" `Quick test_net_pinned;
    Alcotest.test_case "deep nesting exits 1" `Quick test_deep_nesting_rejected;
  ]
