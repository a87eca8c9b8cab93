module Q = Choreographer.Query
module W = Choreographer.Workbench

let close = Alcotest.float 1e-9

let pepa_context () =
  Q.context_of_pepa
    (W.analyse_pepa
       (W.parse_pepa ~name:"model" "P = (a, 2.0).(b, 3.0).P; Q = (c, 1.0).Q; system P <> Q;"))

let net_context () =
  Q.context_of_net
    (W.analyse_net (W.parse_net ~name:"net" Scenarios.Instant_message.pepanet_source))

let test_parse_and_print () =
  List.iter
    (fun src ->
      let q = Q.parse src in
      (* print/parse fixpoint *)
      Alcotest.(check string) src (Q.to_string q) (Q.to_string (Q.parse (Q.to_string q))))
    [
      "throughput(a)";
      "utilisation(P.P)";
      "located(IM, P2)";
      "passage(request -> response).mean";
      "passage(a -> b).cdf(2.5)";
      "passage(a -> b).median";
      "passage(a -> b).completion";
      "1 + 2 * throughput(a)";
      "(throughput(a) - 1) / 2";
    ]

let test_parse_errors () =
  List.iter
    (fun src ->
      match Q.parse src with
      | exception Q.Query_error _ -> ()
      | _ -> Alcotest.failf "%S: accepted" src)
    [
      "";
      "throughput";
      "throughput()";
      "passage(a).mean";
      "passage(a -> b).nonsense";
      "throughput(a) +";
      "located(a)";
      "1 $ 2";
      "throughput(a) trailing";
    ]

let test_eval_pepa () =
  let ctx = pepa_context () in
  Alcotest.check close "throughput" 1.2 (Q.eval_string ctx "throughput(a)");
  Alcotest.check close "utilisation" 0.6 (Q.eval_string ctx "utilisation(P.P)");
  Alcotest.check close "arithmetic" 2.4 (Q.eval_string ctx "2 * throughput(a)");
  Alcotest.check close "ratio" 1.0 (Q.eval_string ctx "throughput(a) / throughput(b)");
  (* passage from just-after-a to just-after-b: one exponential stage at
     rate 3. *)
  Alcotest.check close "passage mean" (1.0 /. 3.0)
    (Q.eval_string ctx "passage(a -> b).mean");
  Alcotest.check close "passage completion" 1.0
    (Q.eval_string ctx "passage(a -> b).completion");
  Alcotest.check close "passage cdf" (1.0 -. exp (-3.0))
    (Q.eval_string ctx "passage(a -> b).cdf(1)");
  Alcotest.(check bool) "median near ln2/3" true
    (abs_float (Q.eval_string ctx "passage(a -> b).median" -. (log 2.0 /. 3.0)) < 1e-4)

let test_eval_net () =
  let ctx = net_context () in
  Alcotest.check close "net throughput" 0.7717041800643087
    (Q.eval_string ctx "throughput(close)");
  (* in-place stage times after transmit up to sendback: 1/2 + 1/10 + 1/4 + 1/8 *)
  Alcotest.check close "net passage" 0.975
    (Q.eval_string ctx "passage(transmit -> sendback).mean");
  Alcotest.check close "location probability sums" 1.0
    (Q.eval_string ctx "located(InstantMessage, P1) + located(InstantMessage, P2)")

let test_eval_errors () =
  let ctx = pepa_context () in
  List.iter
    (fun src ->
      match Q.eval_string ctx src with
      | exception Q.Query_error _ -> ()
      | _ -> Alcotest.failf "%S: evaluated" src)
    [
      "throughput(zz)";
      "utilisation(Nope.Nope)";
      "located(IM, P1)" (* pepa model has no tokens *);
      "passage(zz -> a).mean";
      "passage(a -> zz).mean";
    ]

let test_cross_check_tomcat () =
  (* The paper's E4 measure expressed as one query. *)
  let study = Scenarios.Tomcat.study ~server:(Scenarios.Tomcat.server_jsp ()) in
  let ctx = Q.context_of_pepa study.Scenarios.Tomcat.analysis in
  Alcotest.check close "response delay as a query" study.Scenarios.Tomcat.waiting_delay
    (Q.eval_string ctx "passage(request -> response).mean");
  Alcotest.check close "Little's law as a query" study.Scenarios.Tomcat.waiting_delay
    (Q.eval_string ctx "utilisation(Client_GenerateRequest.Client_WaitForResponse) / throughput(request)")

let suite =
  [
    Alcotest.test_case "parse and print" `Quick test_parse_and_print;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "evaluation on PEPA models" `Quick test_eval_pepa;
    Alcotest.test_case "evaluation on nets" `Quick test_eval_net;
    Alcotest.test_case "evaluation errors" `Quick test_eval_errors;
    Alcotest.test_case "Tomcat delay as queries" `Quick test_cross_check_tomcat;
  ]
