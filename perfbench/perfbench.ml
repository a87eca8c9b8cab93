(* The OCaml half of the benchmark (run.py is the driver):

     perfbench gen WORKLOAD SEED DIR ASSETS
         write the seeded inputs of WORKLOAD into DIR; print a manifest
     perfbench trace-op uml_roundtrip XMI RATES DIR
     perfbench trace-op exact_solve PEPA DIR
         one op as the CLI runs it, with a span around every layer call;
         the outputs land in DIR, the spans and counts are printed
     perfbench client SEED REQUESTS SOCKET DIR ASSETS
         the daemon_mix sequence against a running choreographerd; prints
         "ready", then reads the daemon's pid from stdin
     perfbench engine SEED REQUESTS DIR ASSETS
         the same sequence through Service.Engine in-process, traced
     perfbench xcheck PEPA
         largest differences of the steady-state vector and of the
         throughputs between BiCGStab and Gauss-Seidel solves of PEPA

   Results are one JSON object on stdout. *)

module J = Obs.Json

let num x = J.Num x
let int n = J.Num (float_of_int n)
let str s = J.Str s
let print json = print_endline (J.to_string json)

let gen workload seed dir assets =
  match workload with
  | "uml_roundtrip" ->
      print
        (J.Obj
           [
             ( "inputs",
               J.Arr
                 (List.map
                    (fun (p : Gen.project) ->
                      J.Obj
                        [
                          ("xmi", str p.Gen.xmi);
                          ("rates", str p.Gen.rates_path);
                          ("journey_throughput", num p.Gen.journey_throughput);
                          ("actions", int ((3 * (p.Gen.k - 1)) + 1));
                        ])
                    (Gen.projects ~seed ~dir)) );
           ])
  | "exact_solve" ->
      print
        (J.Obj
           [
             ( "inputs",
               J.Arr
                 (List.map (fun path -> J.Obj [ ("pepa", str path) ]) (Gen.tandems ~dir)) );
           ])
  | "daemon_mix" ->
      (* The hot set as files, for the one-shot CLI's reference outputs. *)
      print
        (J.Obj
           [
             ( "hot",
               J.Arr
                 (List.map
                    (fun (m : Gen.model) ->
                      let path = Filename.concat dir m.Gen.name in
                      Gen.write_file path m.Gen.source;
                      J.Obj
                        [
                          ("name", str m.Gen.name);
                          ("path", str path);
                          ( "aggregate",
                            str (Markov.Lump.mode_to_string m.Gen.options.Service.Protocol.aggregate) );
                        ])
                    (Gen.pool ~assets)) );
           ])
  | w -> failwith ("unknown workload " ^ w)

let spans_json spans =
  J.Arr
    (List.map
       (fun (s : Trace.span) ->
         J.Arr [ str s.Trace.name; int s.Trace.parent; num s.Trace.t0; num s.Trace.t1; num s.Trace.words ])
       spans)

(* One traced op in this fresh process, as the CLI would run it: its
   outputs land in DIR for run.py to compare with the verified CLI
   output; the spans and counts are printed. *)
let trace_op body =
  let counts = body () in
  print
    (J.Obj
       [
         ("spans", spans_json (Trace.take ()));
         ("counts", J.Obj (List.map (fun (k, v) -> (k, num v)) counts));
       ])

let outcome_json outcomes =
  let failures = List.filter_map (function Error e -> Some e | Ok () -> None) outcomes in
  [
    ("failed", int (List.length failures));
    ("failures", J.Arr (List.map str (List.filteri (fun i _ -> i < 5) failures)));
  ]

(* Everything the client needs is built before it prints "ready"; it
   then reads the daemon's pid, which run.py sends once it has started
   choreographerd, so set-up time covers only the daemon. *)
let client seed requests socket dir assets =
  let hot = Gen.pool ~assets in
  let chk = Mix.checker ~expect:dir hot in
  let sequence = Gen.sequence ~seed ~assets requests in
  print_endline "ready";
  let pid = int_of_string (String.trim (input_line stdin)) in
  let r = Mix.client ~socket ~pid ~chk ~hot sequence in
  let warm, cold = Mix.sweep_iterations r.Mix.responses in
  print
    (J.Obj
       ([
          ("t_primed", num r.Mix.t_primed);
          ("phase_s", num r.Mix.phase_s);
          ("cls", J.Arr (List.map (fun (q : Gen.request) -> str (Gen.cls_name q.Gen.cls)) sequence));
          ("latency_s", J.Arr (Array.to_list (Array.map num r.Mix.latencies)));
          ("ok", J.Arr (Array.to_list (Array.map (fun o -> J.Bool (Result.is_ok o)) r.Mix.outcomes)));
          ("rss_start_kib", num r.Mix.rss_start_kib);
          ("rss_end_kib", num r.Mix.rss_end_kib);
          ("hwm_kib", num r.Mix.hwm_kib);
          ("hits", num r.Mix.hits);
          ("misses", num r.Mix.misses);
          ("evictions", num r.Mix.evictions);
          ("sweep_iterations_warm", num warm);
          ("sweep_iterations_cold", num cold);
        ]
       @ outcome_json (Array.to_list r.Mix.outcomes)))

let engine seed requests dir assets =
  let hot = Gen.pool ~assets in
  let chk = Mix.checker ~expect:dir hot in
  let sequence = Gen.sequence ~seed ~assets requests in
  let traced = Mix.traced ~chk ~hot sequence in
  let spans = Trace.take () in
  print
    (J.Obj
       [
         ( "ops",
           J.Arr
             (List.mapi
                (fun i ((q : Gen.request), (codec_s, outcome)) ->
                  J.Obj
                    [
                      ("cls", str (Gen.cls_name q.Gen.cls));
                      ("codec_s", num codec_s);
                      ("failure", match outcome with Error e -> str e | Ok () -> J.Null);
                      ("spans", spans_json (List.filter (fun (s : Trace.span) -> s.Trace.op = i) spans));
                    ])
                (List.combine sequence traced)) );
       ])

let xcheck path =
  let solve method_ = Choreographer.Workbench.analyse_pepa_file ~method_ path in
  let b = solve Markov.Steady.Bicgstab and g = solve Markov.Steady.Gauss_seidel in
  let throughputs a = a.Choreographer.Workbench.results.Choreographer.Results.throughputs in
  let diff =
    List.fold_left2
      (fun acc (a, x) (b, y) -> if a = b then Float.max acc (abs_float (x -. y)) else infinity)
      0.0 (throughputs b) (throughputs g)
  in
  let pi_diff = ref 0.0 in
  Array.iteri
    (fun i x -> pi_diff := Float.max !pi_diff (abs_float (x -. g.Choreographer.Workbench.distribution.(i))))
    b.Choreographer.Workbench.distribution;
  print (J.Obj [ ("max_throughput_diff", num diff); ("max_pi_diff", num !pi_diff) ])

let () =
  match Array.to_list Sys.argv |> List.tl with
  | [ "gen"; workload; seed; dir; assets ] -> gen workload (int_of_string seed) dir assets
  | [ "trace-op"; "uml_roundtrip"; xmi; rates_path; dir ] ->
      trace_op (Oneshot.pipeline ~xmi ~rates_path ~dir)
  | [ "trace-op"; "exact_solve"; path; dir ] -> trace_op (Oneshot.solve ~path ~dir)
  | [ "client"; seed; requests; socket; dir; assets ] ->
      client (int_of_string seed) (int_of_string requests) socket dir assets
  | [ "engine"; seed; requests; dir; assets ] ->
      engine (int_of_string seed) (int_of_string requests) dir assets
  | [ "xcheck"; path ] -> xcheck path
  | _ ->
      prerr_endline "usage: perfbench (gen|trace-op|client|engine|xcheck) ... (see perfbench.ml)";
      exit 2
