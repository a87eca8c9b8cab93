(* The daemon service layer: wire framing, the protocol codec, the
   content-hash model cache, the engine's staged memoisation, sweep
   warm-starts, and a live daemon exercised over a real Unix socket —
   including the headline contract that a solve served by the daemon is
   byte-identical to the one-shot CLI's output. *)

let asset name =
  (* Tests run in _build/default/test; the assets are declared as deps. *)
  let candidates =
    [ Filename.concat "../examples/assets" name; Filename.concat "examples/assets" name ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some path -> path
  | None -> Alcotest.failf "asset %s not found" name

let read_file path = In_channel.with_open_bin path In_channel.input_all
let mm1k () = read_file (asset "mm1k.pepa")
let has_prefix prefix s = String.starts_with ~prefix s

let has_infix needle hay =
  let nh = String.length hay and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
  at 0

(* [replace_once old_ new_ s]: s with the first occurrence of [old_]
   swapped for [new_]; fails the test when [old_] is absent. *)
let replace_once old_ new_ s =
  let n = String.length s and no = String.length old_ in
  let rec find i = if i + no > n then None else if String.sub s i no = old_ then Some i else find (i + 1) in
  match find 0 with
  | Some i -> String.sub s 0 i ^ new_ ^ String.sub s (i + no) (n - i - no)
  | None -> Alcotest.failf "%S not found in source" old_

let default = Service.Protocol.default_options

let solve_request ?(options = default) ~name source =
  Service.Protocol.Solve { kind = Service.Protocol.Pepa; name; source; options }

(* A PEPA model analysed directly through the Workbench stages, the
   reference the engine's replies are held to. *)
let analyse ~name source =
  Choreographer.Workbench.analyse_pepa ~name (Choreographer.Workbench.parse_pepa ~name source)

let response_output = function
  | Service.Protocol.Ok_response { output; _ } -> output
  | Service.Protocol.Error_response { message; _ } ->
      Alcotest.failf "unexpected error response: %s" message

(* ------------------------------------------------------------------ *)
(* Framing                                                             *)
(* ------------------------------------------------------------------ *)

let test_frame_roundtrip () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let payload = "{\"verb\":\"solve\",\"pad\":\"" ^ String.make 5000 'x' ^ "\"}" in
  Service.Frame.write a payload;
  Alcotest.(check (option string)) "round trip" (Some payload) (Service.Frame.read b);
  Unix.close a;
  Alcotest.(check (option string)) "clean close" None (Service.Frame.read b);
  Unix.close b

let test_frame_length_codec () =
  let payload = "hello frames" in
  let encoded = Service.Frame.encode payload in
  Alcotest.(check int) "prefix + payload"
    (4 + String.length payload)
    (String.length encoded);
  Alcotest.(check int) "declared length" (String.length payload)
    (Service.Frame.decode_length (String.sub encoded 0 4))

let test_frame_truncated () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let encoded = Service.Frame.encode (String.make 100 'y') in
  let cut = String.length encoded - 3 in
  assert (Unix.write_substring a encoded 0 cut = cut);
  Unix.close a;
  (match Service.Frame.read b with
  | exception Service.Frame.Frame_error msg ->
      Alcotest.(check bool) "mid-frame EOF named" true (has_infix "closed" msg)
  | Some _ | None -> Alcotest.fail "truncated frame not rejected");
  Unix.close b

let test_frame_oversized () =
  (* A length header beyond the cap is rejected before any allocation;
     an HTTP request line is exactly such a header, which is what lets
     the server share one socket between both protocols. *)
  let huge = "\xff\xff\xff\xff" in
  (match Service.Frame.decode_length huge with
  | exception Service.Frame.Frame_error _ -> ()
  | n -> Alcotest.failf "oversized header accepted as %d" n);
  match Service.Frame.decode_length "GET " with
  | exception Service.Frame.Frame_error _ -> ()
  | n -> Alcotest.failf "HTTP sniff: 'GET ' accepted as frame length %d" n

(* ------------------------------------------------------------------ *)
(* Protocol codec                                                      *)
(* ------------------------------------------------------------------ *)

let roundtrip_request request =
  Service.Protocol.request_of_json (Service.Protocol.request_to_json request)

let test_protocol_roundtrip () =
  let options =
    {
      Service.Protocol.method_ = Some (Markov.Steady.Sor 1.5);
      aggregate = Markov.Lump.Both;
      fluid = Some { Fluid.Rk45.rtol = 1e-6; atol = 1e-10 };
      max_states = Some 100_000;
      restart = `Absorb;
    }
  in
  let requests =
    [
      solve_request ~options ~name:"m.pepa" "P = (a, 1.0).P;\nsystem P;";
      Service.Protocol.Query
        {
          kind = Service.Protocol.Net;
          name = "n.pepanet";
          source = "...";
          query = "throughput(serve)";
          options = default;
        };
      Service.Protocol.Pipeline
        {
          name = "models/doc.uml";
          document = "<XMI/>";
          rates = Some "a = 1.0\n";
          rates_name = Some "models/doc.rates";
          options;
          xmltable = false;
        };
      Service.Protocol.Reflect
        {
          name = "doc";
          document = "activity A";
          rates = None;
          rates_name = None;
          options = default;
        };
      Service.Protocol.Sweep
        {
          kind = Service.Protocol.Pepa;
          name = "m.pepa";
          source = "...";
          options = default;
          axes =
            [
              { Service.Protocol.target = `Rate "arrive"; values = [ 1.0; 2.0 ] };
              { Service.Protocol.target = `Replicas "Queue"; values = [ 2.0; 4.0; 8.0 ] };
            ];
          backend = Service.Protocol.Fluid_ode;
          warm_start = false;
        };
      Service.Protocol.Stats;
      Service.Protocol.Shutdown;
    ]
  in
  List.iter
    (fun request ->
      if roundtrip_request request <> request then
        Alcotest.failf "request did not round-trip: %s"
          (Obs.Json.to_string (Service.Protocol.request_to_json request)))
    requests;
  (* A pipeline request without the xmltable field, as an older client
     sends it, asks for the table. *)
  (match
     Service.Protocol.request_of_json
       (Obs.Json.of_string {|{"verb": "pipeline", "name": "doc", "document": "<XMI/>"}|})
   with
  | Service.Protocol.Pipeline { xmltable; _ } ->
      Alcotest.(check bool) "xmltable defaults to true" true xmltable
  | _ -> Alcotest.fail "expected a pipeline request");
  let responses =
    [
      Service.Protocol.Ok_response
        {
          output = "table\n";
          diagnostics = "solver: ...\n";
          data = Obs.Json.Obj [ ("k", Obs.Json.Num 1.0) ];
        };
      Service.Protocol.Error_response { code = 2; message = "error: no\nhint: yes\n" };
    ]
  in
  List.iter
    (fun response ->
      if
        Service.Protocol.response_of_json (Service.Protocol.response_to_json response)
        <> response
      then Alcotest.fail "response did not round-trip")
    responses

let test_protocol_rejects () =
  Alcotest.check_raises "unknown verb"
    (Service.Protocol.Protocol_error "unknown verb frobnicate") (fun () ->
      ignore
        (Service.Protocol.request_of_json
           (Obs.Json.Obj [ ("verb", Obs.Json.Str "frobnicate") ])));
  (match Service.Protocol.method_of_string "sor:2.5" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "sor:2.5 accepted");
  Alcotest.(check bool) "sor omega parses" true
    (Service.Protocol.method_of_string "sor:0.8" = Ok (Some (Markov.Steady.Sor 0.8)));
  (* Counts must be integers a double holds exactly: 2^62 would wrap
     to a negative job count on conversion. *)
  let with_options fields =
    Obs.Json.Obj
      [
        ("verb", Obs.Json.Str "solve");
        ("kind", Obs.Json.Str "pepa");
        ("name", Obs.Json.Str "m.pepa");
        ("source", Obs.Json.Str "P = (a, 1.0).P;\nsystem P;");
        ("options", Obs.Json.Obj fields);
      ]
  in
  List.iter
    (fun (field, v) ->
      match Service.Protocol.request_of_json (with_options [ (field, Obs.Json.Num v) ]) with
      | exception Service.Protocol.Protocol_error msg ->
          Alcotest.(check bool) (Printf.sprintf "%s=%g names the field" field v) true
            (has_infix field msg)
      | _ -> Alcotest.failf "%s = %g accepted" field v)
    [
      ("max_states", 1e300);
      ("max_states", -5.0);
      ("max_states", 0.5);
    ];
  (* Bad option values get the CLI's message, valid choices included. *)
  List.iter
    (fun (field, value) ->
      match
        Service.Protocol.request_of_json (with_options [ (field, Obs.Json.Str value) ])
      with
      | exception Service.Protocol.Protocol_error msg ->
          Alcotest.(check bool) (field ^ " rejection lists the valid values") true
            (has_infix "(valid: " msg)
      | _ -> Alcotest.failf "%s = %s accepted" field value)
    [ ("method", "jacobi"); ("aggregate", "most"); ("fluid", "banana") ]

(* One printer per option value, and each printer's output parses back
   to the value printed — on the wire and through the CLI converters. *)
let test_option_values_round_trip () =
  let methods =
    [
      None;
      Some Markov.Steady.Direct;
      Some Markov.Steady.Gauss_seidel;
      Some (Markov.Steady.Sor 1.5);
      Some (Markov.Steady.Sor 1.23456789);
      Some Markov.Steady.Power;
      Some Markov.Steady.Bicgstab;
    ]
  in
  let cli_print conv v = Format.asprintf "%a" (Cmdliner.Arg.conv_printer conv) v in
  let cli_parse conv s =
    match Cmdliner.Arg.conv_parser conv s with
    | Ok v -> v
    | Error (`Msg m) -> Alcotest.failf "%s rejected: %s" s m
  in
  List.iter
    (fun m ->
      let printed = Service.Protocol.method_to_string m in
      Alcotest.(check bool) (printed ^ " parses back") true
        (Service.Protocol.method_of_string printed = Ok m);
      Alcotest.(check string) (printed ^ ": CLI prints the same") printed
        (cli_print Cli_support.method_conv m);
      Alcotest.(check bool) (printed ^ ": CLI parses back") true
        (cli_parse Cli_support.method_conv printed = m))
    methods;
  Alcotest.(check string) "sor keeps its relaxation" "sor:1.5"
    (Service.Protocol.method_to_string (Some (Markov.Steady.Sor 1.5)));
  List.iter
    (fun t ->
      let printed = cli_print Cli_support.fluid_conv t in
      Alcotest.(check bool) (printed ^ " parses back") true
        (cli_parse Cli_support.fluid_conv printed = t);
      Alcotest.(check string) "wire form" printed (Service.Protocol.fluid_to_string (Some t)))
    [ Fluid.Rk45.default_tolerances; { Fluid.Rk45.rtol = 1.234567891e-7; atol = 3e-13 } ];
  List.iter
    (fun mode ->
      Alcotest.(check bool) "aggregate parses back" true
        (cli_parse Cli_support.aggregate_conv (cli_print Cli_support.aggregate_conv mode) = mode))
    [ Markov.Lump.No_agg; Markov.Lump.Symmetry; Markov.Lump.Lumping; Markov.Lump.Both ]

(* ------------------------------------------------------------------ *)
(* LRU cache                                                           *)
(* ------------------------------------------------------------------ *)

let test_cache_lru () =
  let cache = Service.Cache.create ~capacity:2 () in
  let build v () = v in
  Alcotest.(check int) "miss a" 1 (fst (Service.Cache.find_or_create cache ~key:"a" (build 1)));
  Alcotest.(check int) "miss b" 2 (fst (Service.Cache.find_or_create cache ~key:"b" (build 2)));
  (* Touch a so b is the least recently used, then overflow. *)
  (match Service.Cache.find_or_create cache ~key:"a" (build 99) with
  | 1, `Hit -> ()
  | v, _ -> Alcotest.failf "expected cached a=1 hit, got %d" v);
  ignore (Service.Cache.find_or_create cache ~key:"c" (build 3));
  Alcotest.(check int) "capacity held" 2 (Service.Cache.length cache);
  (match Service.Cache.find_or_create cache ~key:"a" (build 99) with
  | 1, `Hit -> ()
  | _ -> Alcotest.fail "a should have survived the eviction");
  (match Service.Cache.find_or_create cache ~key:"b" (build 42) with
  | 42, `Miss -> ()
  | _ -> Alcotest.fail "b should have been evicted");
  let hits, misses, evictions = Service.Cache.counts cache in
  Alcotest.(check int) "hits" 2 hits;
  Alcotest.(check int) "misses" 4 misses;
  (* b evicted by c, then c evicted when b was rebuilt. *)
  Alcotest.(check int) "evictions" 2 evictions

(* ------------------------------------------------------------------ *)
(* Engine: the staged model cache                                      *)
(* ------------------------------------------------------------------ *)

let stage_names (outcome : Service.Engine.outcome) = List.map fst outcome.Service.Engine.stages

let test_engine_stage_cache () =
  let engine = Service.Engine.create () in
  let source = mm1k () in
  let request = solve_request ~name:"mm1k.pepa" source in
  let first = Service.Engine.handle engine request in
  Alcotest.(check (list string))
    "cold run times every stage"
    [ "parse"; "compile"; "derive"; "solve" ]
    (stage_names first);
  let second = Service.Engine.handle engine request in
  Alcotest.(check (list string)) "repeat run times nothing" [] (stage_names second);
  Alcotest.(check bool) "responses identical" true
    (first.Service.Engine.response = second.Service.Engine.response);
  (* Changing only the method keeps parse/compile/derive cached. *)
  let direct =
    solve_request
      ~options:{ default with Service.Protocol.method_ = Some Markov.Steady.Direct }
      ~name:"mm1k.pepa" source
  in
  Alcotest.(check (list string))
    "method change re-runs only the solve" [ "solve" ]
    (stage_names (Service.Engine.handle engine direct));
  (* Changing the source is a different content hash: everything runs. *)
  let touched = solve_request ~name:"mm1k.pepa" (source ^ "\n% touched\n") in
  Alcotest.(check (list string))
    "source change re-runs everything"
    [ "parse"; "compile"; "derive"; "solve" ]
    (stage_names (Service.Engine.handle engine touched))

let test_engine_solve_matches_workbench () =
  let engine = Service.Engine.create () in
  let source = mm1k () in
  let output =
    response_output
      (Service.Engine.handle engine (solve_request ~name:"mm1k.pepa" source)).Service.Engine.response
  in
  let direct = analyse ~name:"mm1k.pepa" source in
  Alcotest.(check string)
    "engine output = Render of a direct analysis"
    (Choreographer.Render.pepa_solve direct)
    output

(* A pipeline response carries the .xmltable document only when the
   request asks for it; the reflected document and the tables printed
   to stdout do not depend on it. *)
let test_engine_xmltable_on_request () =
  let engine = Service.Engine.create () in
  let reply xmltable =
    match
      (Service.Engine.handle engine
         (Service.Protocol.Pipeline
            {
              name = "pda.uml";
              document = read_file (asset "pda.uml");
              rates = Some (read_file (asset "pda.rates"));
              rates_name = Some "pda.rates";
              options = default;
              xmltable;
            }))
        .Service.Engine.response
    with
    | Service.Protocol.Ok_response { output; data; _ } -> (output, data)
    | Service.Protocol.Error_response { message; _ } -> Alcotest.fail message
  in
  let output, data = reply true and output', data' = reply false in
  let field name data = Obs.Json.member name data in
  Alcotest.(check bool) "asked: table" true (Option.is_some (field "xmltable" data));
  Alcotest.(check bool) "not asked: no table" true (Option.is_none (field "xmltable" data'));
  Alcotest.(check string) "same tables printed" output output';
  Alcotest.(check bool) "same reflected document" true (field "reflected" data = field "reflected" data')

let test_engine_query () =
  let engine = Service.Engine.create () in
  let source = mm1k () in
  let request =
    Service.Protocol.Query
      {
        kind = Service.Protocol.Pepa;
        name = "mm1k.pepa";
        source;
        query = "throughput(serve)";
        options = default;
      }
  in
  let output = response_output (Service.Engine.handle engine request).Service.Engine.response in
  let direct = analyse ~name:"mm1k.pepa" source in
  let expected =
    Printf.sprintf "%.10g\n"
      (Choreographer.Query.eval_string
         (Choreographer.Query.context_of_pepa direct)
         "throughput(serve)")
  in
  Alcotest.(check string) "query value" expected output

let test_engine_error_contract () =
  let engine = Service.Engine.create () in
  let outcome =
    Service.Engine.handle engine (solve_request ~name:"bad.pepa" "P = (a, 1.0).Q;\nsystem P;")
  in
  match outcome.Service.Engine.response with
  | Service.Protocol.Error_response { code; message } ->
      Alcotest.(check int) "model error code" Service.Errors.model_error_code code;
      let expected =
        match
          analyse ~name:"bad.pepa" "P = (a, 1.0).Q;\nsystem P;"
        with
        | exception Choreographer.Workbench.Analysis_error msg ->
            Printf.sprintf "error: %s\n" msg
        | _ -> Alcotest.fail "expected the model to be invalid"
      in
      Alcotest.(check string) "CLI stderr bytes" expected message
  | Service.Protocol.Ok_response _ -> Alcotest.fail "expected an error response"

(* ------------------------------------------------------------------ *)
(* Ingest                                                              *)
(* ------------------------------------------------------------------ *)

let test_ingest () =
  (match Choreographer.Ingest.document_of_string ~name:"d.xmi" "<unclosed" with
  | Error msg ->
      Alcotest.(check bool) "XML error labelled" true
        (String.length msg > 5 && String.sub msg 0 5 = "d.xmi")
  | Ok _ -> Alcotest.fail "malformed XML accepted");
  (match Choreographer.Ingest.rates_of_string ~name:"r.rates" "not a rate line" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "malformed rates accepted");
  (match Choreographer.Ingest.rates_of_file None with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "omitted rates file rejected: %s" msg);
  match Choreographer.Ingest.document_of_file (asset "pda.uml") with
  | Ok _ -> ()
  | Error msg -> Alcotest.fail msg

(* ------------------------------------------------------------------ *)
(* Sweep                                                               *)
(* ------------------------------------------------------------------ *)

let test_sweep_warm_equals_cold () =
  let model = Choreographer.Workbench.parse_pepa ~name:"mm1k.pepa" (mm1k ()) in
  let axes =
    [ { Service.Protocol.target = `Rate "arrive"; values = [ 1.0; 1.5; 2.0; 2.5 ] } ]
  in
  let run warm_start =
    Service.Sweep.run ~name:"mm1k.pepa" ~model ~options:default ~axes
      ~backend:Service.Protocol.Exact ~warm_start
  in
  let warm = run true and cold = run false in
  Alcotest.(check int) "same grid" (List.length cold.Service.Sweep.points)
    (List.length warm.Service.Sweep.points);
  List.iteri
    (fun i (w : Service.Sweep.point) ->
      let c = List.nth cold.Service.Sweep.points i in
      Alcotest.(check bool)
        (Printf.sprintf "point %d warm flag" i)
        (i > 0) w.Service.Sweep.warm;
      Alcotest.(check bool) "cold never warm" false c.Service.Sweep.warm;
      List.iter2
        (fun (wa, wv) (ca, cv) ->
          Alcotest.(check string) "same action" ca wa;
          if abs_float (wv -. cv) > 1e-10 then
            Alcotest.failf "point %d %s: warm %.15g vs cold %.15g" i wa wv cv)
        w.Service.Sweep.throughputs c.Service.Sweep.throughputs)
    warm.Service.Sweep.points

let test_sweep_axis_validation () =
  let model = Choreographer.Workbench.parse_pepa ~name:"mm1k.pepa" (mm1k ()) in
  let axes = [ { Service.Protocol.target = `Rate "no_such_rate"; values = [ 1.0 ] } ] in
  match
    Service.Sweep.run ~name:"mm1k.pepa" ~model ~options:default ~axes
      ~backend:Service.Protocol.Exact ~warm_start:true
  with
  | exception Choreographer.Workbench.Analysis_error msg ->
      Alcotest.(check bool) "names the axis" true
        (has_infix "no_such_rate" msg)
  | _ -> Alcotest.fail "unknown axis accepted"

(* ------------------------------------------------------------------ *)
(* Live daemon over a Unix socket                                      *)
(* ------------------------------------------------------------------ *)

(* One framed exchange on a fresh connection, with a receive timeout
   so a daemon that stopped answering fails the test instead of hanging
   it. *)
let raw_reply socket payload =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Unix.connect fd (Unix.ADDR_UNIX socket);
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0;
      Service.Frame.write fd payload;
      match Service.Frame.read fd with
      | Some reply -> reply
      | None -> Alcotest.fail "daemon closed the connection without answering"
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          Alcotest.fail "daemon did not answer within 10 s")

let raw_exchange socket payload =
  Service.Protocol.response_of_json (Obs.Json.of_string (raw_reply socket payload))

let with_server ?(workers = 2) f =
  let socket_path = Filename.temp_file "choreographerd" ".sock" in
  let ledger = Filename.temp_file "choreographerd" ".jsonl" in
  Sys.remove ledger;
  let config =
    {
      Service.Server.socket_path;
      tcp = None;
      workers;
      cache_capacity = 8;
      ledger = Some ledger;
    }
  in
  let ready = Atomic.make false and stopped = Atomic.make false in
  let server =
    Domain.spawn (fun () ->
        Fun.protect
          ~finally:(fun () -> Atomic.set stopped true)
          (fun () -> Service.Server.run ~on_ready:(fun () -> Atomic.set ready true) config))
  in
  let deadline = Unix.gettimeofday () +. 10.0 in
  while (not (Atomic.get ready)) && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.005
  done;
  if not (Atomic.get ready) then Alcotest.fail "server did not come up";
  (* Shutdown must end the daemon: a worker lost to an escaped
     exception would leave it waiting for that worker forever. *)
  let stop () =
    (try
       ignore
         (raw_exchange socket_path
            (Obs.Json.to_string (Service.Protocol.request_to_json Service.Protocol.Shutdown)))
     with _ -> ());
    let deadline = Unix.gettimeofday () +. 10.0 in
    while (not (Atomic.get stopped)) && Unix.gettimeofday () < deadline do
      Unix.sleepf 0.01
    done;
    if Atomic.get stopped then Domain.join server;
    if Sys.file_exists ledger then Sys.remove ledger
  in
  let result = Fun.protect ~finally:stop (fun () -> f ~socket:socket_path ~ledger) in
  if not (Atomic.get stopped) then Alcotest.fail "daemon still running 10 s after shutdown";
  result

let request_over socket request =
  let conn = Service.Client.connect ~socket () in
  Fun.protect
    ~finally:(fun () -> Service.Client.close conn)
    (fun () -> Service.Client.request conn request)

let test_daemon_solve_byte_identical () =
  let source = mm1k () in
  let direct = analyse ~name:"mm1k.pepa" source in
  let expected = Choreographer.Render.pepa_solve direct in
  with_server (fun ~socket ~ledger ->
      let request = solve_request ~name:"mm1k.pepa" source in
      (match request_over socket request with
      | Service.Protocol.Ok_response { output; diagnostics; _ } ->
          Alcotest.(check string) "stdout bytes" expected output;
          Alcotest.(check bool) "solver diagnostics line" true
            (has_prefix "solver: method=" diagnostics)
      | Service.Protocol.Error_response { message; _ } -> Alcotest.fail message);
      (* The repeat is served from cache — and still byte-identical. *)
      Alcotest.(check string) "repeat bytes" expected
        (response_output (request_over socket request));
      (match request_over socket Service.Protocol.Stats with
      | Service.Protocol.Ok_response { data; _ } ->
          let n field =
            Option.bind (Obs.Json.member "cache" data) (Obs.Json.member field)
            |> Fun.flip Option.bind Obs.Json.to_float
            |> Option.value ~default:(-1.0)
          in
          Alcotest.(check bool) "a cache hit was counted" true (n "hits" >= 1.0);
          Alcotest.(check bool) "one model cached" true (n "entries" = 1.0)
      | Service.Protocol.Error_response { message; _ } -> Alcotest.fail message);
      (* One ledger record per request, with explicit stage timings on
         the cold solve and none on the cached repeat. *)
      let records = Obs.Ledger.load ~path:ledger in
      let solves =
        List.filter
          (fun (r : Obs.Ledger.record) -> r.Obs.Ledger.tool = "choreographerd solve")
          records
      in
      match solves with
      | [ cold; cached ] ->
          Alcotest.(check bool) "cold run recorded stages" true
            (List.mem_assoc "solve" cold.Obs.Ledger.stages);
          Alcotest.(check (list (pair string (float 0.0))))
            "cached run skipped every stage" [] cached.Obs.Ledger.stages;
          (* Counters are scoped to the request that moved them. *)
          Alcotest.(check (option int)) "cold run counted its states" (Some 4)
            (List.assoc_opt "states_explored" cold.Obs.Ledger.counters);
          Alcotest.(check (option int)) "cached run explored nothing" None
            (List.assoc_opt "states_explored" cached.Obs.Ledger.counters);
          Alcotest.(check bool) "model hash recorded" true
            (String.length cold.Obs.Ledger.model_hash = 32)
      | _ -> Alcotest.failf "expected 2 solve records, found %d" (List.length solves))

let test_daemon_concurrent_clients () =
  let source = mm1k () in
  let variant rate =
    replace_once "arrive = 2.0;" (Printf.sprintf "arrive = %.1f;" rate) source
  in
  let rates = [ 0.5; 1.0; 1.5; 2.5 ] in
  let expected =
    List.map
      (fun r ->
        Choreographer.Render.pepa_solve
          (analyse ~name:"mm1k.pepa" (variant r)))
      rates
  in
  with_server ~workers:4 (fun ~socket ~ledger:_ ->
      let clients =
        List.map
          (fun r ->
            Domain.spawn (fun () ->
                response_output
                  (request_over socket (solve_request ~name:"mm1k.pepa" (variant r)))))
          rates
      in
      let outputs = List.map Domain.join clients in
      List.iteri
        (fun i (want, got) ->
          Alcotest.(check string) (Printf.sprintf "client %d deterministic" i) want got)
        (List.combine expected outputs))

let test_daemon_error_and_codes () =
  with_server (fun ~socket ~ledger:_ ->
      (match request_over socket (solve_request ~name:"bad.pepa" "P = nonsense") with
      | Service.Protocol.Error_response { code; message } ->
          Alcotest.(check int) "parse error exits 1" 1 code;
          Alcotest.(check bool) "error: prefix" true
            (has_prefix "error: " message)
      | Service.Protocol.Ok_response _ -> Alcotest.fail "garbage model accepted");
      (* A net-only feature on a PEPA request: sweep rejects nets. *)
      match
        request_over socket
          (Service.Protocol.Sweep
             {
               kind = Service.Protocol.Net;
               name = "x.pepanet";
               source = "...";
               options = default;
               axes = [ { Service.Protocol.target = `Rate "r"; values = [ 1.0 ] } ];
               backend = Service.Protocol.Exact;
               warm_start = true;
             })
      with
      | Service.Protocol.Error_response { code; message = _ } ->
          Alcotest.(check int) "analysis failure code" 2 code
      | Service.Protocol.Ok_response _ -> Alcotest.fail "net sweep accepted")

let test_daemon_http_metrics () =
  with_server (fun ~socket ~ledger:_ ->
      ignore (response_output (request_over socket (solve_request ~name:"mm1k.pepa" (mm1k ()))));
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX socket);
      let http_request = "GET /metrics HTTP/1.0\r\nHost: daemon\r\n\r\n" in
      assert (
        Unix.write_substring fd http_request 0 (String.length http_request)
        = String.length http_request);
      let buf = Buffer.create 4096 in
      let chunk = Bytes.create 4096 in
      let rec drain () =
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> ()
        | n ->
            Buffer.add_subbytes buf chunk 0 n;
            drain ()
      in
      drain ();
      Unix.close fd;
      let body = Buffer.contents buf in
      List.iter
        (fun needle ->
          Alcotest.(check bool) needle true (has_infix needle body))
        [
          "200 OK";
          "choreographer_requests_total";
          "choreographer_cache_misses_total";
          "choreographer_cache_stage_hits_total";
        ])

let test_daemon_sweep_and_shutdown () =
  with_server (fun ~socket ~ledger:_ ->
      let sweep =
        Service.Protocol.Sweep
          {
            kind = Service.Protocol.Pepa;
            name = "mm1k.pepa";
            source = mm1k ();
            options = default;
            axes = [ { Service.Protocol.target = `Rate "arrive"; values = [ 1.0; 2.0; 3.0 ] } ];
            backend = Service.Protocol.Exact;
            warm_start = true;
          }
      in
      (match request_over socket sweep with
      | Service.Protocol.Ok_response { data; _ } ->
          let points =
            Option.value ~default:Obs.Json.Null (Obs.Json.member "points" data)
          in
          Alcotest.(check int) "grid size" 3 (List.length (Obs.Json.to_list points))
      | Service.Protocol.Error_response { message; _ } -> Alcotest.fail message);
      (* Clean shutdown: acknowledged, then the socket goes away. *)
      (match request_over socket Service.Protocol.Shutdown with
      | Service.Protocol.Ok_response _ -> ()
      | Service.Protocol.Error_response { message; _ } -> Alcotest.fail message);
      let deadline = Unix.gettimeofday () +. 5.0 in
      let rec gone () =
        match Service.Client.connect ~socket () with
        | conn ->
            Service.Client.close conn;
            if Unix.gettimeofday () > deadline then
              Alcotest.fail "daemon still accepting after shutdown"
            else begin
              Unix.sleepf 0.05;
              gone ()
            end
        | exception Service.Client.Connection_error _ -> ()
      in
      gone ())

(* A solve of mm1k.pepa as a hand-written frame, for option values the
   typed request cannot express. *)
let raw_solve_frame ~options =
  Printf.sprintf {|{"verb":"solve","kind":"pepa","name":"mm1k.pepa","source":%s,"options":%s}|}
    (Obs.Json.to_string (Obs.Json.Str (mm1k ())))
    options

(* A count of 2^62 wraps to a negative int under [int_of_float];
   decoding must reject it as an invalid request, and the worker that
   read the frame must go on serving.  With one worker, a lost worker
   would leave the next request unanswered.  The frame's out-of-range
   "jobs", an option older clients send, is ignored; its "max_states"
   is what the count-field decoder rejects. *)
let test_daemon_survives_out_of_range_jobs () =
  with_server ~workers:1 (fun ~socket ~ledger:_ ->
      let frame =
        raw_solve_frame
          ~options:{|{"jobs":4.611686018427388e18,"max_states":4.611686018427388e18}|}
      in
      (match raw_exchange socket frame with
      | Service.Protocol.Error_response { code; message } ->
          Alcotest.(check int) "invalid request code" 1 code;
          Alcotest.(check bool) "names the field" true (has_infix "max_states" message)
      | Service.Protocol.Ok_response _ -> Alcotest.fail "out-of-range max_states accepted");
      let next =
        Obs.Json.to_string
          (Service.Protocol.request_to_json (solve_request ~name:"mm1k.pepa" (mm1k ())))
      in
      match raw_exchange socket next with
      | Service.Protocol.Ok_response { output; _ } ->
          Alcotest.(check bool) "next request answered" true (output <> "")
      | Service.Protocol.Error_response { message; _ } -> Alcotest.fail message)

(* Every solve runs on the worker that read it, so an older client's
   "jobs" option changes nothing: whatever its value, the reply is the
   bytes of the same frame without it. *)
let test_daemon_ignores_jobs () =
  with_server (fun ~socket ~ledger:_ ->
      let expected = raw_reply socket (raw_solve_frame ~options:"{}") in
      List.iter
        (fun jobs ->
          Alcotest.(check string) ("reply with jobs " ^ jobs) expected
            (raw_reply socket (raw_solve_frame ~options:(Printf.sprintf {|{"jobs":%s}|} jobs))))
        [ "4"; "-1" ])

(* Each connection gets a domain of its own, at most [workers] at a
   time: with one worker, a second client waits while the first stays
   connected, and is answered once the first leaves. *)
let test_daemon_connection_limit () =
  with_server ~workers:1 (fun ~socket ~ledger:_ ->
      let stats = Obs.Json.to_string (Service.Protocol.request_to_json Service.Protocol.Stats) in
      let open_connection () =
        let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_UNIX socket);
        fd
      in
      let first = open_connection () and first_open = ref true in
      let close_first () =
        if !first_open then begin
          first_open := false;
          Unix.close first
        end
      in
      let second = open_connection () in
      Fun.protect
        ~finally:(fun () ->
          close_first ();
          Unix.close second)
        (fun () ->
          Service.Frame.write first stats;
          Alcotest.(check bool) "first client answered" true (Service.Frame.read first <> None);
          Unix.setsockopt_float second Unix.SO_RCVTIMEO 0.3;
          Service.Frame.write second stats;
          (match Service.Frame.read second with
          | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
          | _ -> Alcotest.fail "second client served beyond one worker");
          close_first ();
          Unix.setsockopt_float second Unix.SO_RCVTIMEO 10.0;
          match Service.Frame.read second with
          | Some _ -> ()
          | None -> Alcotest.fail "daemon closed the second connection without answering"
          | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
              Alcotest.fail "second client not answered within 10 s of the first leaving"))

(* The built executables, run as subprocesses. *)
let built_exe name =
  match
    List.find_opt Sys.file_exists [ Filename.concat "../bin" name; Filename.concat "bin" name ]
  with
  | Some path -> path
  | None -> Alcotest.failf "executable %s not found" name

(* A 2 MB frame of '[' sent to the built daemon with one worker and its
   stack capped by OCAMLRUNPARAM: the frame must be refused as
   malformed JSON, the worker must go on answering, and shutdown must
   end the process.  A worker lost to a stack overflow would leave
   [stats] unanswered and shutdown waiting for it forever. *)
let test_daemon_survives_deep_frame () =
  let socket = Filename.temp_file "choreographerd" ".sock" in
  Sys.remove socket;
  let env =
    Array.append
      [| "OCAMLRUNPARAM=l=256k" |]
      (Array.of_list
         (List.filter
            (fun v -> not (has_prefix "OCAMLRUNPARAM=" v))
            (Array.to_list (Unix.environment ()))))
  in
  let exe = built_exe "choreographerd_main.exe" in
  let null = Unix.openfile Filename.null [ Unix.O_RDWR ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close null)
      (fun () ->
        Unix.create_process_env exe
          [| exe; "--socket"; socket; "--workers"; "1"; "--no-ledger" |]
          env null null null)
  in
  let exited () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ -> false
    | _ -> true
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true
  in
  let wait_until deadline cond =
    while (not (cond ())) && Unix.gettimeofday () < deadline do
      Unix.sleepf 0.02
    done;
    cond ()
  in
  let finished = ref false in
  let finally () =
    if not !finished then begin
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (wait_until (Unix.gettimeofday () +. 5.0) exited)
    end;
    if Sys.file_exists socket then Sys.remove socket
  in
  Fun.protect ~finally (fun () ->
      let listening () =
        match Service.Client.connect ~socket () with
        | conn ->
            Service.Client.close conn;
            true
        | exception Service.Client.Connection_error _ -> false
      in
      if not (wait_until (Unix.gettimeofday () +. 10.0) listening) then
        Alcotest.fail "daemon did not come up";
      (match raw_exchange socket (String.make (2 * 1024 * 1024) '[') with
      | Service.Protocol.Error_response { code; message } ->
          Alcotest.(check int) "malformed request code" 1 code;
          Alcotest.(check bool) "reported as not JSON" true
            (has_prefix "error: request is not JSON" message)
      | Service.Protocol.Ok_response _ -> Alcotest.fail "deep frame accepted");
      let request r = Obs.Json.to_string (Service.Protocol.request_to_json r) in
      (match raw_exchange socket (request Service.Protocol.Stats) with
      | Service.Protocol.Ok_response _ -> ()
      | Service.Protocol.Error_response { message; _ } -> Alcotest.fail message);
      ignore (raw_exchange socket (request Service.Protocol.Shutdown));
      finished := wait_until (Unix.gettimeofday () +. 10.0) exited;
      if not !finished then Alcotest.fail "daemon still running 10 s after shutdown")

(* Jacobi is gone: both CLIs reject it as an invalid option value (exit
   2, valid choices listed) and the daemon as an invalid request (code
   1, same list).  --jobs is gone too: both CLIs reject it as an
   unknown option (exit 2). *)
let run_cli exe args =
  let err = Filename.temp_file "cli" ".err" in
  Fun.protect
    ~finally:(fun () -> Sys.remove err)
    (fun () ->
      let code =
        Sys.command (Filename.quote_command exe ~stdout:Filename.null ~stderr:err args)
      in
      (* cmdliner wraps its messages: compare with whitespace squashed. *)
      let text = String.map (function '\n' -> ' ' | c -> c) (read_file err) in
      let words = String.split_on_char ' ' text in
      (code, String.concat " " (List.filter (( <> ) "") words)))

let test_jacobi_rejected_everywhere () =
  List.iter
    (fun (cli, args) ->
      let code, stderr = run_cli (built_exe cli) args in
      Alcotest.(check int) (cli ^ " exits 2") 2 code;
      Alcotest.(check bool) (cli ^ " lists the valid methods") true
        (has_infix "valid: auto, direct, gauss-seidel, sor[:omega], power, bicgstab" stderr))
    [
      ("workbench_main.exe", [ "solve"; asset "mm1k.pepa"; "--method"; "jacobi" ]);
      ( "choreographer_main.exe",
        [
          "pipeline"; "--input"; asset "pda.uml"; "--output"; Filename.null; "--method";
          "jacobi";
        ] );
    ];
  List.iter
    (fun (cli, args) ->
      let code, _ = run_cli (built_exe cli) args in
      Alcotest.(check int) (cli ^ " rejects --jobs") 2 code)
    [
      ("workbench_main.exe", [ "solve"; asset "mm1k.pepa"; "--jobs"; "2" ]);
      ( "choreographer_main.exe",
        [ "pipeline"; "--input"; asset "pda.uml"; "--output"; Filename.null; "--jobs"; "2" ] );
    ];
  with_server (fun ~socket ~ledger:_ ->
      match raw_exchange socket (raw_solve_frame ~options:{|{"method":"jacobi"}|}) with
      | Service.Protocol.Error_response { code; message } ->
          Alcotest.(check int) "invalid request code" 1 code;
          Alcotest.(check bool) "lists the valid methods" true (has_infix "(valid: " message)
      | Service.Protocol.Ok_response _ -> Alcotest.fail "jacobi accepted by the daemon")

(* Every pepa-workbench subcommand that explores a model reports a
   malformed one the way solve does: exit 1, stderr "error: NAME: ...". *)
let test_workbench_malformed_models () =
  let exe = built_exe "workbench_main.exe" in
  let temp suffix contents =
    let path = Filename.temp_file "malformed" suffix in
    Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc contents);
    path
  in
  (* 20,000 definitions with 20,000 distinct actions: more labels than
     the transition stream packs. *)
  let labels =
    let n = 20_000 in
    String.concat ""
      (List.init n (fun i -> Printf.sprintf "P%07d = (a%d, 1.0).P%07d;\n" i i ((i + 1) mod n)))
  in
  (* Active and passive instances of one action in an apparent rate,
     in a plain model and in a net's place context. *)
  let mixed = "P = (a, 1.0).P + (a, infty).P; Q = (a, 2.0).Q; system P <a> Q;" in
  let mixed_net =
    "Tok = (go, 1.0).Tok; S = (a, 1.0).S + (a, infty).S; R = (a, 2.0).R; token Tok;\n\
     place P1 = Tok[Tok] <> (S <a> R); place P2 = Tok[_];\n\
     trans t1 = (go, 1.0) from P1 to P2; trans t2 = (go, 1.0) from P2 to P1;"
  in
  let models =
    [
      temp ".pepa" "P = (a, 1.0).;";
      temp ".pepanet" "this is not a net";
      temp ".pepa" labels;
      temp ".pepa" mixed;
      temp ".pepanet" mixed_net;
    ]
  in
  let basename = Filename.temp_file "malformed" ".export" in
  Fun.protect
    ~finally:(fun () -> List.iter Sys.remove (basename :: models))
    (fun () ->
      List.iter
        (fun model ->
          List.iter
            (fun (sub, extra) ->
              let code, stderr = run_cli exe (sub :: model :: extra) in
              let what = Printf.sprintf "%s %s" sub (Filename.extension model) in
              Alcotest.(check int) (what ^ " exits 1") 1 code;
              Alcotest.(check bool)
                (what ^ " reports an error: " ^ stderr)
                true (has_prefix "error: " stderr))
            [
              ("statespace", []);
              ("check", []);
              ("transient", [ "--time"; "1" ]);
              ("export", [ "-o"; basename ]);
              ("passage", [ "-a"; "a" ]);
              ("graph", []);
            ])
        models);
  (* "tau" names the silent action, which no passage can be built
     around: an error report, not an uncaught exception. *)
  let mm1k = asset "mm1k.pepa" in
  List.iter
    (fun args ->
      let code, stderr = run_cli exe args in
      let what = String.concat " " args in
      Alcotest.(check int) (what ^ " exits 1") 1 code;
      Alcotest.(check bool) (what ^ " reports an error: " ^ stderr) true (has_prefix "error: " stderr))
    [ [ "query"; mm1k; "passage(tau -> serve).mean" ]; [ "passage"; mm1k; "-a"; "tau" ] ];
  (* The daemon's engine reports the label budget and mixed rates as
     model errors too. *)
  List.iter
    (fun (what, name, source, expected) ->
      match
        (Service.Engine.handle (Service.Engine.create ()) (solve_request ~name source))
          .Service.Engine.response
      with
      | Service.Protocol.Error_response { code; message } ->
          Alcotest.(check int) (what ^ ": model error code") Service.Errors.model_error_code code;
          Alcotest.(check string) (what ^ ": message") expected message
      | Service.Protocol.Ok_response _ -> Alcotest.fail "expected an error response")
    [
      ( "label budget",
        "labels.pepa",
        labels,
        "error: labels.pepa: more than 16384 distinct transition labels\n" );
      ( "mixed rates",
        "mixed.pepa",
        mixed,
        "error: mixed.pepa: the apparent rate of a mixes active and passive rates in state \
         (P, Q)\n" );
    ]

let suite =
  [
    Alcotest.test_case "frame round trip" `Quick test_frame_roundtrip;
    Alcotest.test_case "frame length codec" `Quick test_frame_length_codec;
    Alcotest.test_case "frame truncated" `Quick test_frame_truncated;
    Alcotest.test_case "frame oversized and HTTP sniff" `Quick test_frame_oversized;
    Alcotest.test_case "protocol round trip" `Quick test_protocol_roundtrip;
    Alcotest.test_case "protocol rejects" `Quick test_protocol_rejects;
    Alcotest.test_case "option values round-trip" `Quick test_option_values_round_trip;
    Alcotest.test_case "cache LRU" `Quick test_cache_lru;
    Alcotest.test_case "engine stage cache" `Quick test_engine_stage_cache;
    Alcotest.test_case "engine solve = workbench" `Quick test_engine_solve_matches_workbench;
    Alcotest.test_case "engine query" `Quick test_engine_query;
    Alcotest.test_case "engine renders the xmltable on request" `Quick
      test_engine_xmltable_on_request;
    Alcotest.test_case "engine error contract" `Quick test_engine_error_contract;
    Alcotest.test_case "ingest" `Quick test_ingest;
    Alcotest.test_case "sweep warm = cold" `Quick test_sweep_warm_equals_cold;
    Alcotest.test_case "sweep axis validation" `Quick test_sweep_axis_validation;
    Alcotest.test_case "daemon solve byte-identical" `Quick test_daemon_solve_byte_identical;
    Alcotest.test_case "daemon concurrent clients" `Quick test_daemon_concurrent_clients;
    Alcotest.test_case "daemon error codes" `Quick test_daemon_error_and_codes;
    Alcotest.test_case "daemon /metrics" `Quick test_daemon_http_metrics;
    Alcotest.test_case "daemon sweep and shutdown" `Quick test_daemon_sweep_and_shutdown;
    Alcotest.test_case "daemon survives out-of-range jobs" `Quick
      test_daemon_survives_out_of_range_jobs;
    Alcotest.test_case "daemon ignores an older client's jobs" `Quick test_daemon_ignores_jobs;
    Alcotest.test_case "daemon connection limit" `Quick test_daemon_connection_limit;
    Alcotest.test_case "daemon survives a deep frame" `Quick test_daemon_survives_deep_frame;
    Alcotest.test_case "jacobi rejected by CLIs and daemon" `Quick test_jacobi_rejected_everywhere;
    Alcotest.test_case "workbench malformed models exit 1" `Quick
      test_workbench_malformed_models;
  ]
