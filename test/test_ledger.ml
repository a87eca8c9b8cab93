(* The flight recorder: run ledger round-trips, diffing, regression
   detection, the Prometheus sink, the monotonic clock, the background
   sampler and the domain safety of the metrics registry. *)

module J = Obs.Json
module L = Obs.Ledger
module M = Obs.Metrics

let fresh () =
  Obs.Config.disable ();
  Obs.Config.set_level Obs.Config.Quiet;
  Obs.Span.clear_listeners ();
  Obs.Span.reset ();
  M.reset ()

let with_collection f =
  fresh ();
  Obs.Config.enable ();
  Fun.protect ~finally:fresh f

let record ?(tool = "test") ?(stages = []) ?(counters = []) ?(gauges = []) () =
  {
    L.schema = L.schema_version;
    timestamp = 1e9;
    tool;
    model = "m.pepa";
    model_hash = "abc123";
    options = [ ("jobs", "1") ];
    stages;
    counters;
    gauges;
    gc_minor = 3;
    gc_major = 1;
    gc_peak_heap_words = 120_000;
    wall_s = 0.5;
    exit_status = "ok";
  }

(* ------------------------------------------------------------------ *)
(* Ledger records                                                      *)
(* ------------------------------------------------------------------ *)

let test_record_roundtrip () =
  let r =
    record
      ~stages:[ ("statespace.build", 0.25); ("steady.solve", 0.125) ]
      ~counters:[ ("states_explored", 1024); ("solver_iterations", 96) ]
      ~gauges:[ ("solver_residual", 1e-13) ]
      ()
  in
  let r' = L.of_json (J.of_string (J.to_string (L.to_json r))) in
  Alcotest.(check bool) "round-trips exactly" true (r = r')

let test_of_json_rejects_bad_schema () =
  let j =
    match L.to_json (record ()) with
    | J.Obj fields ->
        J.Obj (List.map (fun (k, v) -> if k = "schema" then (k, J.Num 99.0) else (k, v)) fields)
    | _ -> assert false
  in
  (match L.of_json j with
  | _ -> Alcotest.fail "schema 99 should be rejected"
  | exception L.Format_error _ -> ());
  match L.of_json (J.Obj [ ("schema", J.Num 1.0) ]) with
  | _ -> Alcotest.fail "record without a timestamp should be rejected"
  | exception L.Format_error _ -> ()

let test_append_load () =
  let dir = Filename.temp_file "ledger" "" in
  Sys.remove dir;
  (* [append] must create missing parent directories. *)
  let path = Filename.concat (Filename.concat dir "nested") "runs.jsonl" in
  Alcotest.(check (list pass)) "missing file is an empty ledger" [] (L.load ~path);
  let a = record ~tool:"a" ~stages:[ ("s", 1.0) ] () in
  let b = record ~tool:"b" ~stages:[ ("s", 2.0) ] () in
  L.append ~path a;
  L.append ~path b;
  (match L.load ~path with
  | [ a'; b' ] ->
      Alcotest.(check string) "file order" "a" a'.L.tool;
      Alcotest.(check string) "file order" "b" b'.L.tool
  | records -> Alcotest.failf "expected 2 records, got %d" (List.length records));
  Sys.remove path

let test_capture_from_telemetry () =
  with_collection (fun () ->
      Obs.Span.with_ "stage.one" (fun _ -> ());
      Obs.Span.with_ "stage.one" (fun _ -> ());
      Obs.Span.with_ "stage.two" (fun _ -> ());
      M.add (M.counter "test.capture.counter") 7;
      let r =
        L.capture ~tool:"test" ~model:"m" ~model_hash:"h" ~options:[ ("jobs", "2") ]
          ~exit_status:"ok" ()
      in
      Alcotest.(check int) "schema" L.schema_version r.L.schema;
      (* Repeated spans fold into one stage entry, durations summed. *)
      Alcotest.(check int) "two stages" 2 (List.length r.L.stages);
      let one = List.assoc "stage.one" r.L.stages in
      let d1, d2 =
        match
          List.filter (fun (c : Obs.Span.completed) -> c.Obs.Span.name = "stage.one")
            (Obs.Span.completed_spans ())
        with
        | [ a; b ] -> (a.Obs.Span.duration_s, b.Obs.Span.duration_s)
        | _ -> Alcotest.fail "expected two stage.one spans"
      in
      Alcotest.(check (float 1e-12)) "stage sums span durations" (d1 +. d2) one;
      Alcotest.(check bool) "counter captured" true
        (List.mem ("test.capture.counter", 7) r.L.counters);
      Alcotest.(check bool) "gc peak non-negative" true (r.L.gc_peak_heap_words >= 0))

(* ------------------------------------------------------------------ *)
(* Diffing and regression                                              *)
(* ------------------------------------------------------------------ *)

let test_diff_stages () =
  let a = record ~stages:[ ("build", 1.0); ("solve", 0.5); ("gone", 0.1) ] () in
  let b = record ~stages:[ ("build", 1.5); ("solve", 0.25); ("new", 0.2) ] () in
  let deltas = L.diff_stages a b in
  Alcotest.(check (list string))
    "union of stages, A's order first"
    [ "build"; "solve"; "gone"; "new" ]
    (List.map (fun d -> d.L.stage) deltas);
  let build = List.find (fun d -> d.L.stage = "build") deltas in
  Alcotest.(check (option (float 1e-9))) "delta" (Some 0.5) build.L.delta_s;
  Alcotest.(check (option (float 1e-9))) "pct" (Some 50.0) build.L.pct;
  let solve = List.find (fun d -> d.L.stage = "solve") deltas in
  Alcotest.(check (option (float 1e-9))) "negative pct" (Some (-50.0)) solve.L.pct;
  (* A stage missing on one side diffs without delta or pct. *)
  let gone = List.find (fun d -> d.L.stage = "gone") deltas in
  Alcotest.(check bool) "missing in B" true (gone.L.b_s = None && gone.L.delta_s = None);
  let fresh_stage = List.find (fun d -> d.L.stage = "new") deltas in
  Alcotest.(check bool) "missing in A" true
    (fresh_stage.L.a_s = None && fresh_stage.L.pct = None)

let test_diff_metrics () =
  let a = record ~counters:[ ("states", 100); ("same", 5) ] ~gauges:[ ("res", 1e-9) ] () in
  let b = record ~counters:[ ("states", 120); ("same", 5) ] ~gauges:[ ("res", 1e-12) ] () in
  let deltas = L.diff_metrics a b in
  Alcotest.(check (list string))
    "identical metrics omitted" [ "states"; "res" ]
    (List.map (fun d -> d.L.metric) deltas)

let test_regress () =
  let history =
    [
      record ~stages:[ ("build", 1.0); ("solve", 0.5) ] ();
      record ~stages:[ ("build", 1.2); ("solve", 0.5) ] ();
      record ~stages:[ ("build", 0.8); ("solve", 0.5) ] ();
    ]
  in
  (* build median 1.0, solve median 0.5. *)
  let latest = record ~stages:[ ("build", 1.6); ("solve", 0.55); ("new", 9.0) ] () in
  (match L.regress ~threshold:1.5 ~history latest with
  | [ r ] ->
      Alcotest.(check string) "only build regresses" "build" r.L.r_stage;
      Alcotest.(check (float 1e-9)) "ratio" 1.6 r.L.ratio;
      Alcotest.(check (float 1e-9)) "median" 1.0 r.L.median_s
  | rs -> Alcotest.failf "expected one regression, got %d" (List.length rs));
  Alcotest.(check (list pass)) "within threshold passes" []
    (L.regress ~threshold:2.0 ~history latest);
  Alcotest.check_raises "non-positive threshold"
    (Invalid_argument "Ledger.regress: threshold must be positive") (fun () ->
      ignore (L.regress ~threshold:0.0 ~history latest))

let test_regress_memory () =
  let history =
    [ record ~stages:[ ("build", 1.0) ] (); record ~stages:[ ("build", 1.0) ] () ]
  in
  (* The helper pins every record at 120k words; a 2x latest must trip
     the memory entry under the same threshold as the stages. *)
  let latest = { (record ~stages:[ ("build", 1.0) ] ()) with L.gc_peak_heap_words = 240_000 } in
  (match L.regress ~threshold:1.5 ~history latest with
  | [ r ] ->
      Alcotest.(check string) "synthetic stage name" "peak_heap_words" r.L.r_stage;
      Alcotest.(check bool) "flagged as memory" true r.L.r_memory;
      Alcotest.(check (float 1e-9)) "ratio" 2.0 r.L.ratio;
      Alcotest.(check (float 1e-9)) "median in words" 120_000.0 r.L.median_s
  | rs -> Alcotest.failf "expected one memory regression, got %d" (List.length rs));
  (* Records predating the field (peak 0) drop out of the median rather
     than dragging it to zero, and a zero latest never trips. *)
  let unversioned = { (record ()) with L.gc_peak_heap_words = 0 } in
  Alcotest.(check (list pass)) "history without the field is skipped" []
    (L.regress ~threshold:1.5 ~history:[ unversioned; unversioned ] latest);
  Alcotest.(check (list pass)) "zero latest never trips" []
    (L.regress ~threshold:1.5 ~history { latest with L.gc_peak_heap_words = 0 })

(* ------------------------------------------------------------------ *)
(* Prometheus sink                                                     *)
(* ------------------------------------------------------------------ *)

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec scan i = i + n <= h && (String.sub haystack i n = needle || scan (i + 1)) in
  scan 0

let test_prometheus_format () =
  with_collection (fun () ->
      M.add (M.counter "states_explored") 42;
      M.set (M.gauge "statespace.frontier_states") 17.0;
      M.observe (M.histogram "solver.sweep_s") 0.5;
      M.observe (M.histogram "solver.sweep_s") 1.5;
      let s = M.series "sampler.heap_words" in
      M.push s ~x:0.0 ~y:1000.0;
      M.push s ~x:1.0 ~y:2000.0;
      let text = Obs.Sink.prometheus (M.snapshot ()) in
      List.iter
        (fun line -> Alcotest.(check bool) ("contains " ^ line) true (contains text line))
        [
          "# TYPE choreographer_states_explored_total counter";
          "choreographer_states_explored_total 42";
          (* Dots sanitised to underscores. *)
          "# TYPE choreographer_statespace_frontier_states gauge";
          "choreographer_statespace_frontier_states 17";
          "# TYPE choreographer_solver_sweep_s summary";
          "choreographer_solver_sweep_s_count 2";
          "choreographer_solver_sweep_s_sum 2";
          (* A series exposes its latest point as a gauge. *)
          "choreographer_sampler_heap_words 2000";
        ];
      (* Every non-comment line is "name value" with a legal name. *)
      String.split_on_char '\n' text
      |> List.iter (fun line ->
             if line <> "" && line.[0] <> '#' then
               match String.split_on_char ' ' line with
               | [ name; value ] ->
                   Alcotest.(check bool) ("value parses: " ^ line) true
                     (float_of_string_opt value <> None);
                   String.iter
                     (fun c ->
                       Alcotest.(check bool)
                         (Printf.sprintf "legal char %c in %s" c name)
                         true
                         (match c with
                         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true
                         | _ -> false))
                     name
               | _ -> Alcotest.failf "malformed exposition line: %s" line))

let test_metrics_format_of_string () =
  Alcotest.(check bool) "json" true
    (Obs.Sink.metrics_format_of_string "json" = Some Obs.Sink.Json_format);
  Alcotest.(check bool) "prom" true
    (Obs.Sink.metrics_format_of_string "prom" = Some Obs.Sink.Prometheus_format);
  Alcotest.(check bool) "prometheus" true
    (Obs.Sink.metrics_format_of_string "prometheus" = Some Obs.Sink.Prometheus_format);
  Alcotest.(check bool) "garbage" true (Obs.Sink.metrics_format_of_string "xml" = None)

(* ------------------------------------------------------------------ *)
(* Monotonic clock                                                     *)
(* ------------------------------------------------------------------ *)

let test_clock_monotonic () =
  let a = Obs.Clock.now () in
  let b = Obs.Clock.now () in
  Alcotest.(check bool) "never goes backwards" true (b >= a);
  let x, d = Obs.Clock.time (fun () -> Sys.opaque_identity (List.init 1000 Fun.id)) in
  Alcotest.(check int) "payload returned" 1000 (List.length x);
  Alcotest.(check bool) "duration non-negative" true (d >= 0.0);
  Alcotest.(check bool) "since_origin advances" true
    (Obs.Clock.since_origin () >= 0.0);
  (* Wall time is a real epoch timestamp, not the monotonic counter. *)
  Alcotest.(check bool) "wall clock is epoch-scaled" true (Obs.Clock.wall_now () > 1e9)

(* ------------------------------------------------------------------ *)
(* Domain safety                                                       *)
(* ------------------------------------------------------------------ *)

let test_counters_across_domains () =
  with_collection (fun () ->
      let domains = 4 and per_domain = 25_000 in
      let c = M.counter "test.hammer.counter" in
      let g = M.gauge "test.hammer.peak" in
      let spawned =
        List.init domains (fun d ->
            Domain.spawn (fun () ->
                (* Hammer get-or-create as well as the mutations: every
                   handle lookup races the other domains' lookups. *)
                for i = 1 to per_domain do
                  M.incr (M.counter "test.hammer.counter");
                  M.add c 1;
                  M.set_max g (float_of_int ((d * per_domain) + i))
                done))
      in
      List.iter Domain.join spawned;
      Alcotest.(check int)
        "no increment lost across 4 domains"
        (2 * domains * per_domain)
        (M.value c);
      Alcotest.(check (float 0.0))
        "set_max kept the global peak"
        (float_of_int (domains * per_domain))
        (M.gauge_value g))

let test_series_across_domains () =
  with_collection (fun () ->
      let per_domain = 5_000 in
      let spawned =
        List.init 4 (fun d ->
            Domain.spawn (fun () ->
                let s = M.series "test.hammer.series" in
                for i = 1 to per_domain do
                  M.push s ~x:(float_of_int d) ~y:(float_of_int i)
                done))
      in
      List.iter Domain.join spawned;
      Alcotest.(check int)
        "no point lost" (4 * per_domain)
        (List.length (M.series_points (M.series "test.hammer.series"))))

(* ------------------------------------------------------------------ *)
(* Background sampler                                                  *)
(* ------------------------------------------------------------------ *)

let test_sampler_records_series () =
  with_collection (fun () ->
      M.set (M.gauge "solver_residual") 0.25;
      let s = Obs.Sampler.start ~interval_s:0.002 () in
      (* Allocate while the sampler runs so the heap series moves. *)
      let junk = ref [] in
      let t0 = Unix.gettimeofday () in
      while Unix.gettimeofday () -. t0 < 0.05 do
        junk := Array.make 1000 0.0 :: !junk;
        if List.length !junk > 200 then junk := []
      done;
      Obs.Sampler.stop s;
      Obs.Sampler.stop s (* idempotent *);
      let heap = M.series_points (M.series "sampler.heap_words") in
      Alcotest.(check bool)
        (Printf.sprintf "heap series has >= 2 samples (got %d)" (List.length heap))
        true
        (List.length heap >= 2);
      List.iter
        (fun (x, y) ->
          Alcotest.(check bool) "x is monotonic-age seconds" true (x >= 0.0);
          Alcotest.(check bool) "heap sample positive" true (y > 0.0))
        heap;
      let residual = M.series_points (M.series "sampler.residual") in
      Alcotest.(check bool) "residual gauge probed" true (List.length residual >= 1);
      List.iter
        (fun (_, y) -> Alcotest.(check (float 0.0)) "probe reads the gauge" 0.25 y)
        residual;
      Alcotest.(check bool) "peak gauge set" true
        (M.gauge_value (M.gauge "sampler.peak_heap_words") > 0.0);
      Alcotest.check_raises "non-positive interval"
        (Invalid_argument "Sampler.start: interval must be positive") (fun () ->
          ignore (Obs.Sampler.start ~interval_s:0.0 ())))

let test_sampler_off_when_disabled () =
  fresh ();
  (* Collection off: the sampler domain runs but records nothing. *)
  let s = Obs.Sampler.start ~interval_s:0.002 () in
  Unix.sleepf 0.01;
  Obs.Sampler.stop s;
  Alcotest.(check int) "no samples recorded" 0
    (List.length (M.series_points (M.series "sampler.heap_words")))

let suite =
  [
    Alcotest.test_case "ledger record JSON round-trip" `Quick test_record_roundtrip;
    Alcotest.test_case "ledger rejects foreign schemas" `Quick test_of_json_rejects_bad_schema;
    Alcotest.test_case "ledger append and load" `Quick test_append_load;
    Alcotest.test_case "capture folds spans into stages" `Quick test_capture_from_telemetry;
    Alcotest.test_case "diff stages incl. missing stage" `Quick test_diff_stages;
    Alcotest.test_case "diff metrics omits identical" `Quick test_diff_metrics;
    Alcotest.test_case "regression against the median" `Quick test_regress;
    Alcotest.test_case "memory regression against the median" `Quick test_regress_memory;
    Alcotest.test_case "prometheus exposition format" `Quick test_prometheus_format;
    Alcotest.test_case "metrics format names" `Quick test_metrics_format_of_string;
    Alcotest.test_case "monotonic clock" `Quick test_clock_monotonic;
    Alcotest.test_case "counters exact across 4 domains" `Quick test_counters_across_domains;
    Alcotest.test_case "series complete across 4 domains" `Quick test_series_across_domains;
    Alcotest.test_case "sampler records series" `Quick test_sampler_records_series;
    Alcotest.test_case "sampler is a no-op when disabled" `Quick test_sampler_off_when_disabled;
  ]
