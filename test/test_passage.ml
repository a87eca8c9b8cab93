module C = Markov.Ctmc
module P = Markov.Passage

let close = Alcotest.float 1e-7

let test_single_exponential () =
  let c = C.of_transitions ~n:2 [ (0, 1, 2.0) ] in
  let sources = [ (0, 1.0) ] and targets = [ 1 ] in
  List.iter
    (fun t ->
      Alcotest.check close
        (Printf.sprintf "F(%g)" t)
        (1.0 -. exp (-2.0 *. t))
        (P.cdf c ~sources ~targets ~t))
    [ 0.1; 0.5; 1.0; 3.0 ];
  Alcotest.check close "mean" 0.5 (P.mean c ~sources ~targets);
  Alcotest.check (Alcotest.float 1e-3) "median" (log 2.0 /. 2.0)
    (P.quantile c ~sources ~targets ~p:0.5 ~epsilon:1e-5)

let test_erlang () =
  (* Two exponential hops at rate l: Erlang-2.
     F(t) = 1 - e^{-lt}(1 + lt); mean 2/l. *)
  let l = 3.0 in
  let c = C.of_transitions ~n:3 [ (0, 1, l); (1, 2, l) ] in
  let sources = [ (0, 1.0) ] and targets = [ 2 ] in
  List.iter
    (fun t ->
      Alcotest.check close
        (Printf.sprintf "Erlang F(%g)" t)
        (1.0 -. (exp (-.l *. t) *. (1.0 +. (l *. t))))
        (P.cdf c ~sources ~targets ~t))
    [ 0.05; 0.2; 0.7; 2.0 ];
  Alcotest.check close "Erlang mean" (2.0 /. l) (P.mean c ~sources ~targets)

let test_passage_through_cycles () =
  (* With a detour: 0 ->(1) 1 ->(1) 2 but 1 can fall back to 0 at rate 1.
     Hitting time closed form: h1 = 1/2 + (1/2)(1 + h1')... solve: from 1,
     exit 2: with prob 1/2 go to 2 (done), 1/2 back to 0.
     h0 = 1 + h1; h1 = 1/2 + (1/2) h0.  =>  h1 = 1/2 + 1/2(1 + h1) =>
     h1 = 2, h0 = 3. *)
  let c = C.of_transitions ~n:3 [ (0, 1, 1.0); (1, 2, 1.0); (1, 0, 1.0) ] in
  Alcotest.check close "cycle mean" 3.0 (P.mean c ~sources:[ (0, 1.0) ] ~targets:[ 2 ])

let test_source_is_target () =
  let c = C.of_transitions ~n:2 [ (0, 1, 1.0); (1, 0, 1.0) ] in
  Alcotest.check close "instant completion" 1.0 (P.cdf c ~sources:[ (0, 1.0) ] ~targets:[ 0 ] ~t:0.0);
  Alcotest.check close "zero mean" 0.0 (P.mean c ~sources:[ (0, 1.0) ] ~targets:[ 0 ])

let test_unreachable () =
  let c = C.of_transitions ~n:3 [ (0, 1, 1.0); (1, 0, 1.0); (2, 0, 1.0) ] in
  (* state 2 is unreachable from 0 *)
  Alcotest.check close "cdf stays 0" 0.0 (P.cdf c ~sources:[ (0, 1.0) ] ~targets:[ 2 ] ~t:50.0);
  Alcotest.(check bool) "mean infinite" true
    (P.mean c ~sources:[ (0, 1.0) ] ~targets:[ 2 ] = infinity);
  Alcotest.(check bool) "quantile infinite" true
    (P.quantile c ~sources:[ (0, 1.0) ] ~targets:[ 2 ] ~p:0.5 ~epsilon:1e-3 = infinity)

let test_weighted_sources_and_density () =
  let c = C.of_transitions ~n:3 [ (0, 2, 1.0); (1, 2, 4.0) ] in
  (* Half the mass starts fast, half slow: mean = (1 + 0.25) / 2. *)
  Alcotest.check close "weighted mean" 0.625
    (P.mean c ~sources:[ (0, 1.0); (1, 1.0) ] ~targets:[ 2 ]);
  let density =
    P.density c ~sources:[ (0, 1.0) ] ~targets:[ 2 ] ~times:[ 0.0; 0.01; 0.02 ]
  in
  Alcotest.(check int) "two density points" 2 (List.length density);
  let _, d0 = List.hd density in
  Alcotest.(check bool) "density near exp(0) = rate" true (abs_float (d0 -. 1.0) < 0.05)

let test_completion_probability () =
  (* 0 -> target 2 with rate 1, or 0 -> sink 1 with rate 3: completes
     with probability 1/4. *)
  let c = C.of_transitions ~n:3 [ (0, 2, 1.0); (0, 1, 3.0) ] in
  Alcotest.check close "split absorption" 0.25
    (P.completion_probability c ~sources:[ (0, 1.0) ] ~targets:[ 2 ]);
  Alcotest.check close "cdf saturates at the completion probability" 0.25
    (P.cdf c ~sources:[ (0, 1.0) ] ~targets:[ 2 ] ~t:60.0);
  Alcotest.(check bool) "quantile above the ceiling is infinite" true
    (P.quantile c ~sources:[ (0, 1.0) ] ~targets:[ 2 ] ~p:0.5 ~epsilon:1e-3 = infinity);
  Alcotest.(check bool) "quantile below the ceiling is finite" true
    (P.quantile c ~sources:[ (0, 1.0) ] ~targets:[ 2 ] ~p:0.2 ~epsilon:1e-3 < infinity);
  (* recurrent chain: completes surely *)
  let r = C.of_transitions ~n:2 [ (0, 1, 1.0); (1, 0, 1.0) ] in
  Alcotest.check close "recurrent completes" 1.0
    (P.completion_probability r ~sources:[ (0, 1.0) ] ~targets:[ 1 ])

let test_guards () =
  let c = C.of_transitions ~n:2 [ (0, 1, 1.0) ] in
  let expect_invalid thunk =
    match thunk () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  expect_invalid (fun () -> P.cdf c ~sources:[] ~targets:[ 1 ] ~t:1.0);
  expect_invalid (fun () -> P.cdf c ~sources:[ (0, 1.0) ] ~targets:[] ~t:1.0);
  expect_invalid (fun () -> P.cdf c ~sources:[ (0, -1.0) ] ~targets:[ 1 ] ~t:1.0);
  expect_invalid (fun () -> P.cdf c ~sources:[ (5, 1.0) ] ~targets:[ 1 ] ~t:1.0);
  expect_invalid (fun () -> P.quantile c ~sources:[ (0, 1.0) ] ~targets:[ 1 ] ~p:1.5 ~epsilon:1e-3)

let test_cross_check_with_littles_law () =
  (* The client's mean waiting delay from Little's law must equal the
     mean request-to-response passage time. *)
  let study = Scenarios.Tomcat.study ~server:(Scenarios.Tomcat.server_jsp ()) in
  let space = study.Scenarios.Tomcat.analysis.Choreographer.Workbench.space in
  let chain = Pepa.Statespace.ctmc space in
  let entered_by name =
    Markov.Lts.targets (Pepa.Statespace.lts space) (fun action ->
        Pepa.Action.equal action (Pepa.Action.act name))
  in
  let sources = List.map (fun s -> (s, 1.0)) (entered_by "request") in
  let targets = entered_by "response" in
  Alcotest.check close "Little's law agrees with passage analysis"
    study.Scenarios.Tomcat.waiting_delay
    (P.mean chain ~sources ~targets)

(* ------------------------------------------------------------------ *)
(* PRISM export                                                        *)
(* ------------------------------------------------------------------ *)

let test_prism_tra () =
  let c = C.of_transitions ~n:3 [ (0, 1, 2.0); (1, 2, 1.5); (2, 0, 3.0) ] in
  let tra = Markov.Prism.tra_string c in
  let lines = String.split_on_char '\n' (String.trim tra) in
  Alcotest.(check string) "header" "3 3" (List.hd lines);
  Alcotest.(check int) "one line per transition" 4 (List.length lines);
  Alcotest.(check bool) "rates present" true (List.mem "0 1 2" lines);
  let sta = Markov.Prism.sta_string c in
  Alcotest.(check bool) "sta rows" true
    (String.split_on_char '\n' (String.trim sta) = [ "(s)"; "0:(0)"; "1:(1)"; "2:(2)" ])

let test_prism_lab () =
  let c = C.of_transitions ~n:3 [ (0, 1, 1.0) ] in
  (* state 1 and 2 absorbing *)
  let lab = Markov.Prism.lab_string ~labels:[ ("busy", [ 0 ]) ] ~initial:0 c in
  let lines = String.split_on_char '\n' (String.trim lab) in
  Alcotest.(check string) "declarations" {|0="init" 1="deadlock" 2="busy"|} (List.hd lines);
  Alcotest.(check bool) "initial + busy state" true (List.mem "0: 0 2" lines);
  Alcotest.(check bool) "deadlock state" true (List.mem "1: 1" lines)

let test_prism_export_files () =
  let c = C.of_transitions ~n:2 [ (0, 1, 1.0); (1, 0, 2.0) ] in
  let dir = Filename.temp_file "prism" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let basename = Filename.concat dir "model" in
  let written = Markov.Prism.export ~initial:0 ~basename c in
  Alcotest.(check int) "three files" 3 (List.length written);
  List.iter (fun path -> Alcotest.(check bool) path true (Sys.file_exists path)) written;
  (* Reparse the .tra and rebuild an identical chain. *)
  let tra = In_channel.with_open_bin (basename ^ ".tra") In_channel.input_all in
  let lines = String.split_on_char '\n' (String.trim tra) in
  let transitions =
    List.tl lines
    |> List.map (fun line ->
           Scanf.sscanf line "%d %d %f" (fun a b r -> (a, b, r)))
  in
  let rebuilt = C.of_transitions ~n:2 transitions in
  Alcotest.check close "rates survive" (C.rate c 1 0) (C.rate rebuilt 1 0)

let suite =
  [
    Alcotest.test_case "single exponential passage" `Quick test_single_exponential;
    Alcotest.test_case "Erlang passage" `Quick test_erlang;
    Alcotest.test_case "passage through cycles" `Quick test_passage_through_cycles;
    Alcotest.test_case "source already at target" `Quick test_source_is_target;
    Alcotest.test_case "unreachable targets" `Quick test_unreachable;
    Alcotest.test_case "weighted sources and density" `Quick test_weighted_sources_and_density;
    Alcotest.test_case "completion probability" `Quick test_completion_probability;
    Alcotest.test_case "input guards" `Quick test_guards;
    Alcotest.test_case "Little's law cross-check" `Quick test_cross_check_with_littles_law;
    Alcotest.test_case "prism .tra/.sta" `Quick test_prism_tra;
    Alcotest.test_case "prism .lab" `Quick test_prism_lab;
    Alcotest.test_case "prism export files" `Quick test_prism_export_files;
  ]
