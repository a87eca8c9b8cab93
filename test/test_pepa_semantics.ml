module S = Pepa.Syntax

let close = Alcotest.float 1e-9

let space_of = Pepa.Statespace.of_string

(* The outgoing transitions of a state as (action, rate) pairs, in
   stream order. *)
let outgoing space s =
  let acc = ref [] in
  Markov.Lts.iter_row (Pepa.Statespace.lts space) s (fun ~label ~rate ~dst:_ ->
      acc := (label, rate) :: !acc);
  List.rev !acc

let labels space = Array.to_list (Markov.Lts.labels (Pepa.Statespace.lts space))

let test_local_lts () =
  (* The Section 2.2 File component has exactly three derivative states. *)
  let compiled =
    Pepa.Compile.of_string
      {|
        File = (openread, 2.0).InStream + (openwrite, 2.0).OutStream;
        InStream = (read, 10.0).InStream + (close, 4.0).File;
        OutStream = (write, 5.0).OutStream + (close, 4.0).File;
        system File;
      |}
  in
  Alcotest.(check int) "one leaf" 1 (Pepa.Compile.n_leaves compiled);
  Alcotest.(check int) "three derivatives" 3
    (Array.length compiled.Pepa.Compile.components.(0).Pepa.Compile.states);
  Alcotest.(check string) "initial label" "(File)"
    (Pepa.Compile.state_label compiled (Pepa.Compile.initial_state compiled))

let test_anonymous_derivatives () =
  let compiled = Pepa.Compile.of_string "P = (a, 1.0).(b, 2.0).(c, 3.0).P;" in
  Alcotest.(check int) "prefix chain states" 3
    (Array.length compiled.Pepa.Compile.components.(0).Pepa.Compile.states)

let test_unguarded_recursion () =
  (match Pepa.Compile.of_string "P = P + (a, 1.0).P;" with
  | exception Pepa.Compile.Compile_error _ -> ()
  | _ -> Alcotest.fail "unguarded recursion accepted");
  match Pepa.Compile.of_string "P = Q; Q = P; system P;" with
  | exception Pepa.Compile.Compile_error _ -> ()
  | _ -> Alcotest.fail "constant cycle accepted"

let test_model_level_recursion_rejected () =
  match Pepa.Env.of_model (Pepa.Parser.model_of_string "P = (a, 1).P; Sys = P <a> Sys; system Sys;") with
  | exception Pepa.Env.Semantic_error _ -> ()
  | _ -> Alcotest.fail "recursion through cooperation accepted"

let test_static_checks () =
  let reject src =
    match Pepa.Env.of_model (Pepa.Parser.model_of_string src) with
    | exception Pepa.Env.Semantic_error _ -> ()
    | _ -> Alcotest.failf "accepted: %s" src
  in
  reject "P = (a, 1).Q;";                       (* undefined constant *)
  reject "P = (a, 1).P; P = Stop;";             (* duplicate definition *)
  reject "r = 0.0; P = (a, r).P;";              (* non-positive rate *)
  reject "P = (a, unknown_rate).P;";            (* unknown rate parameter *)
  reject "r = infty; P = (a, r).P;";            (* passive rate parameter *)
  reject "P = (a, infty + 1).P;";               (* passive in arithmetic *)
  reject "P = (a, 1).P; Q = (b, 1).Q; R = (c,1).(P <a> Q);" (* model-level under prefix *);
  reject "P = (a, 1).P; Q = (b, 1).Q; S = (P <a> Q) + P;"   (* model-level in choice *)

let test_warnings () =
  let env =
    Pepa.Env.of_model
      (Pepa.Parser.model_of_string
         "P = (a, 1).P; Q = (b, 1).Q; Unused = (c, 1).Unused; system P <x> Q;")
  in
  let contains needle haystack =
    let n = String.length needle and h = String.length haystack in
    let rec scan i = i + n <= h && (String.sub haystack i n = needle || scan (i + 1)) in
    scan 0
  in
  Alcotest.(check bool) "impossible cooperation reported" true
    (List.exists (contains "cooperation on x") (Pepa.Env.warnings env));
  Alcotest.(check bool) "unused definition reported" true
    (List.exists (contains "Unused") (Pepa.Env.warnings env))

let test_interleaving_rates () =
  (* Independent parallel components interleave; total exit rate of the
     initial state is the sum of both. *)
  let space = space_of "P = (a, 2.0).Stop; Q = (b, 3.0).Stop; system P <> Q;" in
  Alcotest.(check int) "4 states" 4 (Pepa.Statespace.n_states space);
  let out = outgoing space 0 in
  Alcotest.(check int) "two initial moves" 2 (List.length out);
  Alcotest.check close "total rate" 5.0 (List.fold_left (fun acc (_, r) -> acc +. r) 0.0 out)

let test_cooperation_rate_formula () =
  (* Hillston's formula on the canonical example: two left instances of
     a (apparent 3), one right instance (apparent 2): each derivation
     carries (r1/3)(2/2)min(3,2). *)
  let space =
    space_of
      {|
        P = (a, 1.0).P1 + (a, 2.0).P2;
        P1 = (done1, 1.0).P1;
        P2 = (done2, 1.0).P2;
        Q = (a, 2.0).Q1;
        Q1 = (done3, 1.0).Q1;
        system P <a> Q;
      |}
  in
  let out = outgoing space 0 in
  Alcotest.(check int) "two shared derivations" 2 (List.length out);
  let rates = List.sort compare (List.map snd out) in
  (match rates with
  | [ low; high ] ->
      Alcotest.check close "shares of min apparent" (2.0 /. 3.0) low;
      Alcotest.check close "shares of min apparent" (4.0 /. 3.0) high
  | _ -> Alcotest.fail "unexpected transitions");
  Alcotest.check close "apparent rate at top" 2.0
    (Pepa.Rate.value_exn (Semantics_reference.apparent_rate (Pepa.Statespace.compiled space)
                            (Pepa.Statespace.state space 0) "a"))

let test_passive_cooperation () =
  let space =
    space_of
      {|
        P = (a, 3.0).P;
        Q = (a, infty).(b, 1.0).Q;
        system P <a> Q;
      |}
  in
  (match outgoing space 0 with
  | [ (_, rate) ] -> Alcotest.check close "passive inherits active rate" 3.0 rate
  | _ -> Alcotest.fail "expected one transition");
  (* Weighted passive: weights 1 and 2 split the active rate 3. *)
  let space2 =
    space_of
      {|
        P = (a, 3.0).P;
        Q = (a, infty).(b, 1.0).Q + (a, infty[2]).(c, 1.0).Q;
        system P <a> Q;
      |}
  in
  let rates = List.sort compare (List.map snd (outgoing space2 0)) in
  match rates with
  | [ one; two ] ->
      Alcotest.check close "weight 1 share" 1.0 one;
      Alcotest.check close "weight 2 share" 2.0 two
  | _ -> Alcotest.fail "expected two transitions"

let test_passive_at_top_rejected () =
  match space_of "P = (a, infty).P;" with
  | exception Pepa.Statespace.Passive_transition _ -> ()
  | _ -> Alcotest.fail "passive top-level activity accepted"

let test_hiding () =
  let space = space_of "P = (a, 2.0).(b, 3.0).P; system P / {a};" in
  let actions = labels space in
  Alcotest.(check bool) "a became tau" true (List.mem Pepa.Action.Tau actions);
  Alcotest.(check bool) "b survives" true (List.mem (Pepa.Action.act "b") actions);
  Alcotest.(check (list string)) "action_names excludes tau" [ "b" ]
    (Pepa.Statespace.action_names space);
  (* Hiding an action inside a cooperation set elsewhere: hidden actions
     cannot synchronise. *)
  let blocked = space_of "P = (a, 2.0).P; Q = (a, infty).Q; system (P / {a}) <a> Q;" in
  let tau_only = List.for_all Pepa.Action.is_tau (labels blocked) in
  Alcotest.(check bool) "hidden action does not synchronise" true tau_only

let test_cooperation_blocking_deadlock () =
  let space = space_of "P = (a, 1.0).P; Q = (b, 1.0).(a, 1.0).Q; system P <a, b> Q;" in
  (* P never offers b, so Q can never advance: complete deadlock. *)
  Alcotest.(check int) "single stuck state" 1 (Pepa.Statespace.n_states space);
  Alcotest.(check (list int)) "deadlock detected" [ 0 ]
    (Markov.Lts.deadlocks (Pepa.Statespace.lts space))

let test_replication () =
  let space = space_of "P = (think, 1.0).(eat, 2.0).P; system P[3];" in
  Alcotest.(check int) "2^3 states" 8 (Pepa.Statespace.n_states space);
  let compiled = Pepa.Statespace.compiled space in
  Alcotest.(check int) "three leaves" 3 (Pepa.Compile.n_leaves compiled);
  Alcotest.(check int) "one shared component" 1 (Array.length compiled.Pepa.Compile.components)

let test_throughput_and_utilisation () =
  let space = space_of "P = (a, 2.0).(b, 3.0).P;" in
  let pi = Pepa.Statespace.steady_state space in
  (* Cycle: throughput = 1/(1/2 + 1/3) = 1.2 for both actions. *)
  Alcotest.check close "throughput a" 1.2 (Pepa.Statespace.throughput space pi "a");
  Alcotest.check close "throughput b" 1.2 (Pepa.Statespace.throughput space pi "b");
  Alcotest.check close "P(state P)" 0.6
    (Pepa.Statespace.local_state_probability space pi ~leaf:0 ~label:"P");
  Alcotest.check close "distribution sums to 1" 1.0 (Array.fold_left ( +. ) 0.0 pi)

let test_analysis_helpers () =
  let space = space_of Scenarios.File_protocol.pepa_source in
  Alcotest.(check bool) "deadlock free" true (Pepa.Analysis.deadlock_free space);
  Alcotest.(check bool) "strongly connected" true (Pepa.Analysis.strongly_connected space);
  Alcotest.(check bool) "read reachable" true (Pepa.Analysis.reachable_action space "read");
  Alcotest.(check bool) "never write after read" true
    (Pepa.Analysis.never_follows space ~first:"read" ~then_:"write");
  Alcotest.(check bool) "write can follow openwrite" false
    (Pepa.Analysis.never_follows space ~first:"openwrite" ~then_:"write");
  Alcotest.(check bool) "eventually reads" true
    (Pepa.Analysis.eventually_reaches space ~from:0 "read");
  Alcotest.(check bool) "states enabling close nonempty" true
    (Pepa.Analysis.states_enabling space "close" <> [])

let test_max_states_bound () =
  match Pepa.Statespace.of_string ~max_states:4 "P = (a, 1.0).(b, 1.0).P; system P[5];" with
  | exception Pepa.Statespace.Too_many_states 4 -> ()
  | _ -> Alcotest.fail "state bound not enforced"

(* Consistency: the apparent rate of an action in a state equals the
   total rate of that action's outgoing transitions (for active-only
   models this must hold exactly). *)
let test_apparent_rate_consistency () =
  List.iter
    (fun src ->
      let space = space_of src in
      let compiled = Pepa.Statespace.compiled space in
      for s = 0 to Pepa.Statespace.n_states space - 1 do
        let vec = Pepa.Statespace.state space s in
        List.iter
          (fun action ->
            let from_transitions =
              List.fold_left
                (fun acc (a, rate) ->
                  if Pepa.Action.equal a (Pepa.Action.act action) then acc +. rate else acc)
                0.0 (outgoing space s)
            in
            let apparent =
              match Semantics_reference.apparent_rate compiled vec action with
              | Pepa.Rate.Active r -> r
              | Pepa.Rate.Passive _ -> Alcotest.fail "passive apparent rate in active model"
            in
            Alcotest.check close
              (Printf.sprintf "state %d action %s" s action)
              apparent from_transitions)
          (Pepa.Statespace.action_names space)
      done)
    [
      "P = (a, 2.0).(b, 3.0).P; Q = (a, 1.0).(c, 4.0).Q; system P <a> Q;";
      "P = (a, 1.0).P1 + (a, 2.0).P2; P1 = (d, 1.0).P; P2 = (d, 2.0).P; Q = (a, 2.0).(d, 1.0).Q; system P <a> Q;";
      "P = (a, 2.0).(b, 3.0).P; system P[3];";
    ]

let suite =
  [
    Alcotest.test_case "local derivation graphs" `Quick test_local_lts;
    Alcotest.test_case "anonymous derivatives" `Quick test_anonymous_derivatives;
    Alcotest.test_case "unguarded recursion rejected" `Quick test_unguarded_recursion;
    Alcotest.test_case "model-level recursion rejected" `Quick test_model_level_recursion_rejected;
    Alcotest.test_case "static checks" `Quick test_static_checks;
    Alcotest.test_case "warnings" `Quick test_warnings;
    Alcotest.test_case "interleaving" `Quick test_interleaving_rates;
    Alcotest.test_case "apparent-rate cooperation" `Quick test_cooperation_rate_formula;
    Alcotest.test_case "passive cooperation" `Quick test_passive_cooperation;
    Alcotest.test_case "passive at top rejected" `Quick test_passive_at_top_rejected;
    Alcotest.test_case "hiding" `Quick test_hiding;
    Alcotest.test_case "cooperation blocking" `Quick test_cooperation_blocking_deadlock;
    Alcotest.test_case "replication" `Quick test_replication;
    Alcotest.test_case "throughput and utilisation" `Quick test_throughput_and_utilisation;
    Alcotest.test_case "behavioural analysis" `Quick test_analysis_helpers;
    Alcotest.test_case "state bound" `Quick test_max_states_bound;
    Alcotest.test_case "apparent-rate consistency" `Quick test_apparent_rate_consistency;
  ]
