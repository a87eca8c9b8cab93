module S = Pepa.Syntax
module P = Pepa.Parser

let expr = Alcotest.testable (fun fmt e -> Pepa.Printer.pp_expr fmt e) S.equal_expr

let parse = P.expr_of_string

let act name = Pepa.Action.act name

let test_atoms () =
  Alcotest.check expr "constant" (S.Var "File") (parse "File");
  Alcotest.check expr "stop" S.Stop (parse "Stop");
  Alcotest.check expr "prefix" (S.Prefix (act "a", S.Rnum 1.0, S.Var "P")) (parse "(a, 1.0).P");
  Alcotest.check expr "tau prefix" (S.Prefix (Pepa.Action.tau, S.Rnum 1.0, S.Stop))
    (parse "(tau, 1).Stop");
  Alcotest.check expr "passive" (S.Prefix (act "a", S.Rpassive 1.0, S.Var "P")) (parse "(a, infty).P");
  Alcotest.check expr "weighted passive" (S.Prefix (act "a", S.Rpassive 2.0, S.Var "P"))
    (parse "(a, infty[2]).P")

let coop set a b = S.Coop (a, S.String_set.of_list set, b)

let test_operators () =
  Alcotest.check expr "choice"
    (S.Choice (S.Prefix (act "a", S.Rnum 1.0, S.Var "P"), S.Prefix (act "b", S.Rnum 2.0, S.Var "Q")))
    (parse "(a, 1).P + (b, 2).Q");
  Alcotest.check expr "cooperation" (coop [ "a"; "b" ] (S.Var "P") (S.Var "Q")) (parse "P <a, b> Q");
  Alcotest.check expr "parallel" (coop [] (S.Var "P") (S.Var "Q")) (parse "P <> Q");
  Alcotest.check expr "hiding" (S.Hide (S.Var "P", S.String_set.singleton "a")) (parse "P / {a}");
  Alcotest.check expr "replication" (S.Array_rep (S.Var "P", 3)) (parse "P[3]");
  Alcotest.check expr "coop is weakest"
    (coop [ "a" ] (S.Choice (S.Var "P", S.Var "Q")) (S.Var "R"))
    (parse "P + Q <a> R");
  Alcotest.check expr "hiding binds tighter than coop"
    (coop [ "a" ] (S.Var "P") (S.Hide (S.Var "Q", S.String_set.singleton "b")))
    (parse "P <a> Q / {b}");
  Alcotest.check expr "left-assoc coop"
    (coop [ "b" ] (coop [ "a" ] (S.Var "P") (S.Var "Q")) (S.Var "R"))
    (parse "P <a> Q <b> R");
  Alcotest.check expr "grouping parens"
    (coop [ "a" ] (S.Var "P") (coop [ "b" ] (S.Var "Q") (S.Var "R")))
    (parse "P <a> (Q <b> R)");
  Alcotest.check expr "prefix chains"
    (S.Prefix (act "a", S.Rnum 1.0, S.Prefix (act "b", S.Rnum 2.0, S.Var "P")))
    (parse "(a, 1).(b, 2).P")

let test_rate_expressions () =
  let r = P.rate_expr_of_string in
  Alcotest.(check bool) "precedence * over +" true
    (r "1 + 2 * x" = S.Radd (S.Rnum 1.0, S.Rmul (S.Rnum 2.0, S.Rvar "x")));
  Alcotest.(check bool) "parens" true (r "(1 + 2) * x" = S.Rmul (S.Radd (S.Rnum 1.0, S.Rnum 2.0), S.Rvar "x"));
  Alcotest.(check bool) "division/subtraction" true
    (r "a - b / 2" = S.Rsub (S.Rvar "a", S.Rdiv (S.Rvar "b", S.Rnum 2.0)));
  Alcotest.(check bool) "scientific notation" true (r "1.5e2" = S.Rnum 150.0)

let test_model_structure () =
  let m = P.model_of_string "r = 1.0; P = (a, r).P; system P;" in
  Alcotest.(check int) "two definitions" 2 (List.length m.S.definitions);
  Alcotest.check expr "explicit system" (S.Var "P") m.S.system;
  let m2 = P.model_of_string "P = (a, 1).P; Q = P <a> P;" in
  Alcotest.check expr "implicit system is last process" (S.Var "Q") m2.S.system;
  let m3 = P.model_of_string "% comment\nP = (a, 1).P; // another\n/* block\ncomment */ system P;" in
  Alcotest.check expr "comments" (S.Var "P") m3.S.system

let expect_error msg src =
  match P.model_of_string src with
  | exception P.Parse_error _ -> ()
  | _ -> Alcotest.failf "%s: expected a parse error" msg

let test_errors () =
  expect_error "missing semicolon" "P = (a, 1).P";
  expect_error "lowercase process" "P = (a, 1).q;";
  expect_error "rate on lhs of process def" "p = (a, 1).P;";
  expect_error "empty model" "   ";
  expect_error "trailing garbage" "P = (a, 1).P; )";
  expect_error "unterminated comment" "/* P = Stop;";
  expect_error "bad replication" "P = Q[0];";
  expect_error "missing rate" "P = (a).P;";
  let positioned =
    match P.model_of_string "P = (a, 1).P;\nQ = (b, ***).Q;" with
    | exception P.Parse_error { line; _ } -> line = 2
    | _ -> false
  in
  Alcotest.(check bool) "position reported" true positioned

(* Parentheses nest at most 512 deep, counted across process terms,
   rate expressions and net place contexts; past that the parser
   reports the first excess parenthesis rather than recursing on. *)
let test_nesting_cap () =
  let nested k inner = String.make k '(' ^ inner ^ String.make k ')' in
  let rejected what ~line ~col parse =
    match parse () with
    | exception (P.Parse_error { line = l; col = c; message }
                | Pepanet.Net_parser.Parse_error { line = l; col = c; message }) ->
        Alcotest.(check (pair int int)) (what ^ ": position") (line, col) (l, c);
        Alcotest.(check bool) (what ^ ": " ^ message) true
          (String.starts_with ~prefix:"parentheses nested deeper than 512" message)
    | _ -> Alcotest.failf "%s: expected a parse error" what
  in
  (* The system equation's first parenthesis sits at line 2, column 8. *)
  let model k = "P = (a, 1.0).P;\nsystem " ^ nested k "P" ^ ";" in
  ignore (P.model_of_string (model 512));
  rejected "513 process levels" ~line:2 ~col:520 (fun () -> P.model_of_string (model 513));
  rejected "200,000 process levels" ~line:2 ~col:520 (fun () ->
      P.model_of_string (model 200_000));
  ignore (P.rate_expr_of_string (nested 512 "1.0"));
  rejected "513 rate levels" ~line:1 ~col:513 (fun () ->
      P.rate_expr_of_string (nested 513 "1.0"));
  (* A prefix's own parenthesis counts as a level for its rate. *)
  ignore (P.expr_of_string ("(a, " ^ nested 511 "1.0" ^ ").P"));
  rejected "prefix rate past the cap" ~line:1 ~col:516 (fun () ->
      P.expr_of_string ("(a, " ^ nested 512 "1.0" ^ ").P"));
  let net k = "Tok = (a, 1.0).Tok;\ntoken Tok;\nplace P1 = " ^ nested k "Tok[Tok]" ^ ";" in
  ignore (Pepanet.Net_parser.net_of_string (net 512));
  rejected "513 place-context levels" ~line:3 ~col:524 (fun () ->
      Pepanet.Net_parser.net_of_string (net 513))

let test_print_parse_hand_cases () =
  let sources =
    [
      "(a, 1.5).P + (b, infty).Q";
      "P <a, b, c> (Q <> R)";
      "(P + Q) / {a, b}";
      "((a, 2).Stop)[4]";
      "(a, r * 2 + 1).P";
      "(tau, 3).(a, infty[2.5]).Stop";
    ]
  in
  List.iter
    (fun src ->
      let e = parse src in
      Alcotest.check expr src e (parse (Pepa.Printer.expr_to_string e)))
    sources

(* Random expression generator: well-formed shapes only (choice and
   prefix stay sequential), so printing is always reparsable. *)
let gen_expr =
  let open QCheck2.Gen in
  let action = oneofl [ "a"; "b"; "work"; "go_home" ] in
  let rate =
    oneof
      [
        map (fun f -> S.Rnum (Float.of_int f +. 0.5)) (1 -- 9);
        return (S.Rpassive 1.0);
        return (S.Rvar "r");
        return (S.Radd (S.Rvar "r", S.Rnum 1.0));
      ]
  in
  let seq =
    fix
      (fun self depth ->
        if depth = 0 then oneof [ return S.Stop; map (fun v -> S.Var v) (oneofl [ "P"; "Q" ]) ]
        else
          oneof
            [
              map (fun v -> S.Var v) (oneofl [ "P"; "Q" ]);
              map3 (fun a r cont -> S.Prefix (Pepa.Action.act a, r, cont)) action rate
                (self (depth - 1));
              map2 (fun a b -> S.Choice (a, b)) (self (depth - 1)) (self (depth - 1));
            ])
      3
  in
  let actions_set = map S.String_set.of_list (list_size (0 -- 3) action) in
  fix
    (fun self depth ->
      if depth = 0 then seq
      else
        oneof
          [
            seq;
            map3 (fun a l b -> S.Coop (a, l, b)) (self (depth - 1)) actions_set (self (depth - 1));
            map2 (fun p l -> S.Hide (p, l)) (self (depth - 1)) actions_set;
            map2 (fun p n -> S.Array_rep (p, n)) (self (depth - 1)) (1 -- 4);
          ])
    3

let prop_round_trip =
  QCheck2.Test.make ~name:"print/parse round-trips random expressions" ~count:500 gen_expr
    (fun e -> S.equal_expr e (parse (Pepa.Printer.expr_to_string e)))

let suite =
  [
    Alcotest.test_case "atoms" `Quick test_atoms;
    Alcotest.test_case "operators and precedence" `Quick test_operators;
    Alcotest.test_case "rate expressions" `Quick test_rate_expressions;
    Alcotest.test_case "model structure" `Quick test_model_structure;
    Alcotest.test_case "parse errors" `Quick test_errors;
    Alcotest.test_case "nesting cap" `Quick test_nesting_cap;
    Alcotest.test_case "print/parse hand cases" `Quick test_print_parse_hand_cases;
    QCheck_alcotest.to_alcotest prop_round_trip;
  ]
