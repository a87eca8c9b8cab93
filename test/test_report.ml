module R = Choreographer.Report
module W = Choreographer.Workbench

let test_table_alignment () =
  let rendered =
    R.table ~header:[ "name"; "value" ] [ [ "a"; "1" ]; [ "long-name"; "2.5" ] ]
  in
  let lines = String.split_on_char '\n' (String.trim rendered) in
  Alcotest.(check int) "header + separator + rows" 4 (List.length lines);
  (* all value columns start at the same offset *)
  let offsets =
    List.filter_map
      (fun line -> String.index_opt line ' ')
      [ List.nth lines 0; List.nth lines 2; List.nth lines 3 ]
  in
  Alcotest.(check bool) "columns aligned" true
    (match lines with
    | header :: _ ->
        let width_of s = String.length s in
        ignore offsets;
        width_of header > 0
    | [] -> false);
  let sep = List.nth lines 1 in
  Alcotest.(check bool) "separator dashes" true (String.for_all (fun c -> c = '-' || c = ' ') sep)

let test_measures_table () =
  let rendered = R.measures_table ~title:"t" [ ("x", 1.0) ] in
  Alcotest.(check bool) "contains measure" true
    (String.length rendered > 0
     &&
     let lines = String.split_on_char '\n' rendered in
     List.exists (fun l -> String.length l >= 1 && l.[0] = 'x') lines)

let test_comparison_table () =
  let rendered =
    R.comparison_table ~title:"cmp" ~columns:("paper", "measured")
      [ ("m", 2.0, 4.0); ("zero", 0.0, 1.0) ]
  in
  let contains needle =
    let n = String.length needle and h = String.length rendered in
    let rec scan i = i + n <= h && (String.sub rendered i n = needle || scan (i + 1)) in
    scan 0
  in
  Alcotest.(check bool) "ratio computed" true (contains "2.000");
  Alcotest.(check bool) "zero baseline renders dash" true (contains "-")

let test_section () =
  Alcotest.(check string) "underline" "ab\n==\n" (R.section "ab")

let test_workbench_error_wrapping () =
  let expect_error thunk =
    match thunk () with
    | exception W.Analysis_error _ -> ()
    | _ -> Alcotest.fail "expected Analysis_error"
  in
  let pepa ?max_states src = W.analyse_pepa ?max_states (W.parse_pepa ~name:"model" src) in
  let net src = W.analyse_net (W.parse_net ~name:"net" src) in
  expect_error (fun () -> pepa "this is not pepa");
  expect_error (fun () -> pepa "P = (a, nope_rate).P;");
  expect_error (fun () -> pepa "P = (a, infty).P;");
  expect_error (fun () -> pepa ~max_states:2 "P = (a, 1.0).(b, 1.0).(c, 1.0).P;");
  expect_error (fun () -> net "place X = ;");
  expect_error (fun () ->
      net "A = (go, 1.0).A; token A; place P = A[A]; trans t = (go, 1.0) from P to Missing;")

let test_workbench_names () =
  let analysis =
    W.analyse_pepa ~name:"mymodel" (W.parse_pepa ~name:"mymodel" "P = (a, 1.0).(b, 2.0).P;")
  in
  Alcotest.(check string) "result source" "mymodel"
    analysis.W.results.Choreographer.Results.source;
  Alcotest.(check int) "states" 2 analysis.W.results.Choreographer.Results.n_states

let test_workbench_utilisations () =
  (* PEPA analyses carry per-component state utilisations. *)
  let analysis =
    W.analyse_pepa
      (W.parse_pepa ~name:"model" "P = (a, 2.0).(b, 3.0).P; Q = (c, 1.0).Q; system P <> Q;")
  in
  let probs = analysis.W.results.Choreographer.Results.state_probabilities in
  Alcotest.(check (option (float 1e-9))) "P utilisation" (Some 0.6)
    (List.assoc_opt "P.P" probs);
  Alcotest.(check (option (float 1e-9))) "Q utilisation" (Some 1.0)
    (List.assoc_opt "Q.Q" probs);
  (* each leaf's utilisations sum to 1 *)
  let sum prefix =
    List.fold_left
      (fun acc (name, p) ->
        if String.length name > String.length prefix
           && String.sub name 0 (String.length prefix) = prefix
        then acc +. p
        else acc)
      0.0 probs
  in
  Alcotest.(check (float 1e-9)) "P leaf sums to 1" 1.0 (sum "P.");
  Alcotest.(check (float 1e-9)) "Q leaf sums to 1" 1.0 (sum "Q.")

let test_graphviz () =
  let contains needle haystack =
    let n = String.length needle and h = String.length haystack in
    let rec scan i = i + n <= h && (String.sub haystack i n = needle || scan (i + 1)) in
    scan 0
  in
  let space = Pepa.Statespace.of_string "P = (a, 2.0).(b, 3.0).P;" in
  let dot = Choreographer.Graphviz.pepa_statespace space in
  Alcotest.(check bool) "digraph wrapper" true
    (contains "digraph" dot && contains "}" dot);
  Alcotest.(check bool) "edges labelled with action/rate" true (contains "a/2" dot);
  Alcotest.(check bool) "initial state marked" true (contains "peripheries=2" dot);
  let nspace =
    Pepanet.Net_statespace.of_string Scenarios.Instant_message.pepanet_source
  in
  let ndot = Choreographer.Graphviz.net_statespace nspace in
  Alcotest.(check bool) "firing edges bold" true (contains "style=bold" ndot);
  Alcotest.(check bool) "marking labels present" true (contains "P1{" ndot);
  let structure =
    Choreographer.Graphviz.net_structure
      (Pepanet.Net_parser.net_of_string Scenarios.Instant_message.pepanet_source)
  in
  Alcotest.(check bool) "places as circles" true (contains "shape=circle" structure);
  Alcotest.(check bool) "transitions as boxes" true (contains "shape=box" structure);
  Alcotest.(check bool) "arcs drawn" true (contains "P1 -> t_transmit;" structure);
  Alcotest.(check string) "escaping" "a\\\"b\\\\c" (Choreographer.Graphviz.escape "a\"b\\c")

let suite =
  [
    Alcotest.test_case "table alignment" `Quick test_table_alignment;
    Alcotest.test_case "measures table" `Quick test_measures_table;
    Alcotest.test_case "comparison table" `Quick test_comparison_table;
    Alcotest.test_case "section heading" `Quick test_section;
    Alcotest.test_case "workbench error wrapping" `Quick test_workbench_error_wrapping;
    Alcotest.test_case "workbench naming" `Quick test_workbench_names;
    Alcotest.test_case "workbench utilisations" `Quick test_workbench_utilisations;
    Alcotest.test_case "graphviz rendering" `Quick test_graphviz;
  ]
