(* The telemetry layer: spans, metrics, sinks and the run report.

   Collection state is process-global, so every test starts from a
   clean slate and leaves collection disabled for the suites that run
   after it. *)

module J = Obs.Json
module Sp = Obs.Span
module M = Obs.Metrics

let fresh () =
  Obs.Config.disable ();
  Obs.Config.set_level Obs.Config.Quiet;
  Sp.clear_listeners ();
  Sp.reset ();
  M.reset ()

let with_collection f =
  fresh ();
  Obs.Config.enable ();
  Fun.protect ~finally:fresh f

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

let test_span_nesting () =
  with_collection (fun () ->
      Sp.with_ "outer" (fun _ ->
          Sp.with_ "inner_a" (fun _ -> ());
          Sp.with_ "inner_b" (fun sp -> Sp.add_int sp "k" 7));
      let spans = Sp.completed_spans () in
      Alcotest.(check int) "three spans" 3 (List.length spans);
      (* Completion order: children close before their parents. *)
      Alcotest.(check (list string))
        "completion order"
        [ "inner_a"; "inner_b"; "outer" ]
        (List.map (fun (s : Sp.completed) -> s.Sp.name) spans);
      let outer = List.nth spans 2 in
      let inner_a = List.nth spans 0 in
      let inner_b = List.nth spans 1 in
      Alcotest.(check int) "outer is a root" (-1) outer.Sp.parent;
      Alcotest.(check int) "inner_a under outer" outer.Sp.id inner_a.Sp.parent;
      Alcotest.(check int) "inner_b under outer" outer.Sp.id inner_b.Sp.parent;
      Alcotest.(check int) "outer depth" 0 outer.Sp.depth;
      Alcotest.(check int) "inner depth" 1 inner_a.Sp.depth;
      Alcotest.(check bool) "attribute recorded" true
        (List.mem_assoc "k" inner_b.Sp.attrs);
      Alcotest.(check bool)
        "parent spans its children"
        true
        (outer.Sp.duration_s +. 1e-9
        >= inner_a.Sp.duration_s +. inner_b.Sp.duration_s))

let test_span_exception_close () =
  with_collection (fun () ->
      (try Sp.with_ "failing" (fun _ -> failwith "boom") with Failure _ -> ());
      match Sp.completed_spans () with
      | [ s ] ->
          Alcotest.(check string) "name" "failing" s.Sp.name;
          Alcotest.(check bool) "error attribute" true (List.mem_assoc "error" s.Sp.attrs)
      | spans -> Alcotest.failf "expected one span, got %d" (List.length spans))

let test_timed_agrees () =
  with_collection (fun () ->
      let (), d = Sp.timed "t" (fun _ -> ()) in
      match Sp.completed_spans () with
      | [ s ] ->
          Alcotest.(check (float 1e-12)) "timed returns the span duration" s.Sp.duration_s d
      | _ -> Alcotest.fail "expected one span")

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let test_counter_arithmetic () =
  with_collection (fun () ->
      let c = M.counter "test.counter" in
      Alcotest.(check int) "starts at zero" 0 (M.value c);
      M.incr c;
      M.add c 41;
      Alcotest.(check int) "incr + add" 42 (M.value c);
      Alcotest.(check int) "get-or-create shares state" 42 (M.value (M.counter "test.counter"));
      M.reset ();
      Alcotest.(check int) "reset zeroes but keeps the handle" 0 (M.value c))

let test_histogram_stats () =
  with_collection (fun () ->
      let h = M.histogram "test.histogram" in
      List.iter (M.observe h) [ 1.0; 2.0; 3.0; 10.0 ];
      let s = M.histogram_stats h in
      Alcotest.(check int) "count" 4 s.M.count;
      Alcotest.(check (float 1e-12)) "sum" 16.0 s.M.sum;
      Alcotest.(check (float 1e-12)) "min" 1.0 s.M.min;
      Alcotest.(check (float 1e-12)) "max" 10.0 s.M.max;
      Alcotest.(check (float 1e-12)) "mean" 4.0 s.M.mean)

let test_series_order () =
  with_collection (fun () ->
      let s = M.series "test.series" in
      M.push s ~x:0.0 ~y:1.0;
      M.push s ~x:8.0 ~y:0.5;
      M.push s ~x:16.0 ~y:0.25;
      Alcotest.(check (list (pair (float 0.0) (float 0.0))))
        "points in push order"
        [ (0.0, 1.0); (8.0, 0.5); (16.0, 0.25) ]
        (M.series_points s))

let test_disabled_is_noop () =
  fresh ();
  (* Collection off: spans vanish, metric mutations do not stick. *)
  Sp.with_ "ghost" (fun sp ->
      Sp.add_int sp "k" 1;
      Sp.with_ "nested_ghost" (fun _ -> ()));
  let c = M.counter "test.disabled.counter" in
  M.incr c;
  M.add c 100;
  let h = M.histogram "test.disabled.histogram" in
  M.observe h 5.0;
  Alcotest.(check int) "no spans recorded" 0 (List.length (Sp.completed_spans ()));
  Alcotest.(check int) "counter unmoved" 0 (M.value c);
  Alcotest.(check int) "histogram empty" 0 (M.histogram_stats h).M.count;
  let (), d = Sp.timed "ghost_timed" (fun _ -> ()) in
  Alcotest.(check bool) "timed still measures while disabled" true (d >= 0.0);
  Alcotest.(check int) "timed recorded nothing" 0 (List.length (Sp.completed_spans ()))

(* ------------------------------------------------------------------ *)
(* Sinks                                                               *)
(* ------------------------------------------------------------------ *)

let test_chrome_trace_roundtrip () =
  with_collection (fun () ->
      Sp.with_ "root" (fun sp ->
          Sp.add_str sp "model" "pda";
          Sp.with_ "child" (fun _ -> ()));
      let doc = Obs.Sink.chrome_trace (Sp.completed_spans ()) in
      let reparsed = J.of_string (J.to_string doc) in
      let events = Option.value ~default:J.Null (J.member "traceEvents" reparsed) in
      let events = J.to_list events in
      Alcotest.(check int) "one event per span" 2 (List.length events);
      List.iter
        (fun e ->
          Alcotest.(check (option string))
            "complete event" (Some "X")
            (match J.member "ph" e with Some (J.Str s) -> Some s | _ -> None);
          Alcotest.(check bool) "ts present" true (J.member "ts" e <> None);
          Alcotest.(check bool) "dur present" true (J.member "dur" e <> None))
        events;
      let names =
        List.filter_map
          (fun e -> match J.member "name" e with Some (J.Str s) -> Some s | _ -> None)
          events
        |> List.sort compare
      in
      Alcotest.(check (list string)) "span names survive" [ "child"; "root" ] names;
      let root =
        List.find
          (fun e -> J.member "name" e = Some (J.Str "root"))
          events
      in
      let args = Option.value ~default:J.Null (J.member "args" root) in
      Alcotest.(check bool) "attributes land under args" true
        (J.member "model" args = Some (J.Str "pda")))

let test_metrics_json_roundtrip () =
  with_collection (fun () ->
      M.add (M.counter "test.json.counter") 3;
      M.set (M.gauge "test.json.gauge") 2.5;
      let doc = Obs.Sink.metrics_json (M.snapshot ()) in
      let reparsed = J.of_string (J.to_string ~pretty:true doc) in
      let counters = Option.value ~default:J.Null (J.member "counters" reparsed) in
      Alcotest.(check (option (float 0.0)))
        "counter value" (Some 3.0)
        (Option.bind (J.member "test.json.counter" counters) J.to_float);
      let gauges = Option.value ~default:J.Null (J.member "gauges" reparsed) in
      Alcotest.(check (option (float 0.0)))
        "gauge value" (Some 2.5)
        (Option.bind (J.member "test.json.gauge" gauges) J.to_float))

let test_json_parser_rejects_garbage () =
  Alcotest.check_raises "trailing garbage" (J.Parse_error "trailing garbage at offset 2")
    (fun () -> ignore (J.of_string "{}x"));
  (match J.of_string {|{"a": [1, 2.5, "sé", true, null]}|} with
  | J.Obj [ ("a", J.Arr [ J.Num 1.0; J.Num 2.5; J.Str "s\xc3\xa9"; J.Bool true; J.Null ]) ]
    -> ()
  | _ -> Alcotest.fail "unexpected parse");
  Alcotest.(check string)
    "non-finite numbers serialise as null" "[null,null]"
    (J.to_string (J.Arr [ J.Num nan; J.Num infinity ]))

(* The parser recurses once per nesting level, so depth is capped: a
   well-formed but 100k-deep array is a parse error, not a stack
   overflow. *)
let test_json_depth_bounded () =
  let nested depth = String.make depth '[' ^ String.make depth ']' in
  (match J.of_string (nested 512) with
  | J.Arr [ _ ] -> ()
  | _ -> Alcotest.fail "512 levels must parse");
  List.iter
    (fun depth ->
      match J.of_string (nested depth) with
      | exception J.Parse_error msg ->
          Alcotest.(check string)
            (Printf.sprintf "%d levels rejected" depth)
            "nesting deeper than 512 at offset 512" msg
      | _ -> Alcotest.failf "%d levels must not parse" depth)
    [ 513; 100_000 ]

(* ------------------------------------------------------------------ *)
(* Pipeline integration                                                *)
(* ------------------------------------------------------------------ *)

let test_pipeline_metrics_agree () =
  with_collection (fun () ->
      let analysis =
        Choreographer.Workbench.analyse_pepa ~name:"obs"
          (Choreographer.Workbench.parse_pepa ~name:"obs"
             "P = (a, 1.0).(b, 2.0).P; Q = (a, infty).Q; system P <a> Q;")
      in
      let results = analysis.Choreographer.Workbench.results in
      Alcotest.(check int)
        "states_explored equals the reported state count"
        results.Choreographer.Results.n_states
        (M.value (M.counter "states_explored"));
      Alcotest.(check int)
        "transitions_emitted equals the reported transition count"
        results.Choreographer.Results.n_transitions
        (M.value (M.counter "transitions_emitted"));
      Alcotest.(check bool)
        "solver iterations recorded" true
        (M.value (M.counter "solver_iterations") > 0);
      let trajectory = M.series_points (M.series "solver.residual_trajectory") in
      Alcotest.(check bool) "residual trajectory recorded" true (List.length trajectory >= 2);
      let _, final_residual = List.nth trajectory (List.length trajectory - 1) in
      Alcotest.(check bool) "trajectory ends converged" true (final_residual <= 1e-9);
      let names = List.map (fun (s : Sp.completed) -> s.Sp.name) (Sp.completed_spans ()) in
      List.iter
        (fun expected ->
          Alcotest.(check bool) (expected ^ " span present") true (List.mem expected names))
        [ "workbench.analyse_pepa"; "statespace.build"; "ctmc.assemble"; "steady.solve" ])

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec scan i = i + n <= h && (String.sub haystack i n = needle || scan (i + 1)) in
  scan 0

let test_report_capture () =
  with_collection (fun () ->
      Sp.with_ "alpha" (fun _ -> Sp.with_ "beta" (fun _ -> ()));
      M.add (M.counter "test.report.counter") 5;
      let report = Obs.Report.capture () in
      let text = Obs.Report.spans_text report in
      Alcotest.(check bool) "tree mentions the root" true (contains text "alpha");
      Alcotest.(check bool) "tree indents the child" true (contains text "beta");
      Alcotest.(check bool) "metric rows carry the counter" true
        (List.exists
           (fun (n, v) -> n = "test.report.counter" && v = "5")
           (Obs.Report.metric_rows report));
      (* The JSON form parses back. *)
      ignore (J.of_string (J.to_string (Obs.Report.to_json report))))

let suite =
  [
    Alcotest.test_case "span nesting and ordering" `Quick test_span_nesting;
    Alcotest.test_case "span closed on exception" `Quick test_span_exception_close;
    Alcotest.test_case "timed agrees with the span" `Quick test_timed_agrees;
    Alcotest.test_case "counter arithmetic" `Quick test_counter_arithmetic;
    Alcotest.test_case "histogram statistics" `Quick test_histogram_stats;
    Alcotest.test_case "series keeps push order" `Quick test_series_order;
    Alcotest.test_case "disabled collection is a no-op" `Quick test_disabled_is_noop;
    Alcotest.test_case "chrome trace JSON round-trips" `Quick test_chrome_trace_roundtrip;
    Alcotest.test_case "metrics JSON round-trips" `Quick test_metrics_json_roundtrip;
    Alcotest.test_case "json parser edges" `Quick test_json_parser_rejects_garbage;
    Alcotest.test_case "json nesting depth is bounded" `Quick test_json_depth_bounded;
    Alcotest.test_case "pipeline metrics match results" `Quick test_pipeline_metrics_agree;
    Alcotest.test_case "run report capture" `Quick test_report_capture;
  ]
