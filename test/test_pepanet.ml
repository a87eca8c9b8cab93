module N = Pepanet.Net
module NS = Pepanet.Net_semantics
module NSS = Pepanet.Net_statespace

let close = Alcotest.float 1e-9

let simple_net =
  {|
    work = 4.0;
    go = 1.0;
    back = 2.0;
    Agent = (work, work).Ready;
    Ready = (go, go).Away;
    Away = (back, back).Agent;
    token Agent;
    place Home = Agent[Agent];
    place Abroad = Agent[_];
    trans t_go = (go, go) from Home to Abroad;
    trans t_back = (back, back) from Abroad to Home;
  |}

let test_parser () =
  let net = Pepanet.Net_parser.net_of_string simple_net in
  Alcotest.(check int) "definitions" 6 (List.length net.N.definitions);
  Alcotest.(check (list string)) "token types" [ "Agent" ] net.N.token_types;
  Alcotest.(check (list string)) "places" [ "Home"; "Abroad" ] (N.place_names net);
  Alcotest.(check int) "transitions" 2 (List.length net.N.transitions);
  let t = List.hd net.N.transitions in
  Alcotest.(check string) "firing action" "go" t.N.firing_action;
  Alcotest.(check int) "default priority" 1 t.N.priority;
  Alcotest.(check bool) "firing actions" true
    (Pepa.Syntax.String_set.equal (N.firing_actions net)
       (Pepa.Syntax.String_set.of_list [ "go"; "back" ]))

let test_printer_round_trip () =
  let sources =
    [
      simple_net;
      Scenarios.Instant_message.pepanet_source;
      {|
        r = 1.0;
        A = (m, r).A;
        B = (s, 2.0).B;
        token A;
        place P = (A[A] <m> A[_]) <> B;
        trans t = (m, r) from P to P priority 3;
      |};
    ]
  in
  List.iter
    (fun src ->
      let net = Pepanet.Net_parser.net_of_string src in
      let printed = Pepanet.Net_printer.net_to_string net in
      let reparsed = Pepanet.Net_parser.net_of_string printed in
      Alcotest.(check string) "stable printing" printed
        (Pepanet.Net_printer.net_to_string reparsed))
    sources

let expect_net_error msg src =
  match Pepanet.Net_compile.of_string src with
  | exception Pepanet.Net_compile.Net_error _ -> ()
  | _ -> Alcotest.failf "%s: expected Net_error" msg

let test_compile_checks () =
  expect_net_error "unbalanced transition"
    {|
      A = (go, 1.0).A;
      token A;
      place P = A[A];
      place Q = A[_];
      place R = A[_];
      trans t = (go, 1.0) from P to Q, R;
    |};
  expect_net_error "unknown place"
    "A = (go, 1.0).A; token A; place P = A[A]; trans t = (go, 1.0) from P to Nowhere;";
  expect_net_error "firing action unknown to tokens"
    "A = (work, 1.0).A; token A; place P = A[A]; place Q = A[_]; trans t = (jump, 1.0) from P to Q;";
  expect_net_error "token not in family"
    "A = (go, 1.0).A; B = (go, 1.0).B; token A; place P = A[B]; place Q = A[_]; trans t = (go, 1.0) from P to Q;";
  expect_net_error "place without cell"
    "A = (go, 1.0).A; S = (x, 1.0).S; token A; place P = A[A]; place Q = S; trans t = (go, 1.0) from P to Q;";
  expect_net_error "static with firing action"
    {|
      A = (go, 1.0).A;
      S = (go, 1.0).S;
      token A;
      place P = A[A] <> S;
      place Q = A[_];
      trans t = (go, 1.0) from P to Q;
    |};
  expect_net_error "inconsistent priorities"
    {|
      A = (go, 1.0).A;
      token A;
      place P = A[A];
      place Q = A[_];
      trans t1 = (go, 1.0) from P to Q priority 1;
      trans t2 = (go, 1.0) from Q to P priority 2;
    |};
  expect_net_error "duplicate place"
    "A = (go, 1.0).A; token A; place P = A[A]; place P = A[_]; trans t = (go, 1.0) from P to P;"

let test_marking_basics () =
  let compiled = Pepanet.Net_compile.of_string simple_net in
  let m = Pepanet.Marking.initial compiled in
  Alcotest.(check int) "one token" 1 (Pepanet.Marking.token_count m);
  Alcotest.(check (option int)) "token at Home" (Some 0) (Pepanet.Marking.token_place compiled m 0);
  Alcotest.(check (list int)) "tokens_at" [ 0 ] (Pepanet.Marking.tokens_at compiled m 0);
  Alcotest.(check (list int)) "vacancy abroad" [ 1 ]
    (Pepanet.Marking.vacant_cells compiled m ~place:1 ~family:0);
  Alcotest.(check (list int)) "no vacancy at home" []
    (Pepanet.Marking.vacant_cells compiled m ~place:0 ~family:0)

let test_firing_semantics () =
  let compiled = Pepanet.Net_compile.of_string simple_net in
  let m0 = Pepanet.Marking.initial compiled in
  (* Initially the token is in state Agent: only the local work move. *)
  let local = NS.local_moves compiled m0 in
  Alcotest.(check int) "one local move" 1 (List.length local);
  Alcotest.(check int) "no firing yet" 0 (List.length (NS.firings compiled m0));
  (* After work, the token is Ready: the go firing is enabled and the
     firing does not appear among local moves. *)
  let m1 = NS.apply m0 (List.hd local).NS.updates in
  Alcotest.(check int) "no local move in Ready" 0 (List.length (NS.local_moves compiled m1));
  (match NS.firings compiled m1 with
  | [ move ] ->
      Alcotest.(check bool) "firing label" true
        (match move.NS.label with NS.Fire { action = "go"; transition = "t_go" } -> true | _ -> false);
      Alcotest.check close "firing rate min(label, token)" 1.0 (Pepa.Rate.value_exn move.NS.rate);
      let m2 = NS.apply m1 move.NS.updates in
      Alcotest.(check (option int)) "token moved" (Some 1)
        (Pepanet.Marking.token_place compiled m2 0);
      Alcotest.(check int) "token conserved" 1 (Pepanet.Marking.token_count m2)
  | moves -> Alcotest.failf "expected one firing, got %d" (List.length moves))

let test_vacancy_blocks_firing () =
  (* Two tokens, single cell at the destination: only one can move; once
     there, the second firing has no vacant output cell. *)
  let src =
    {|
      A = (go, 1.0).Done;
      Done = (rest, 1.0).Done;
      token A;
      place P = A[A] <> A[A];
      place Q = A[_];
      trans t = (go, 1.0) from P to Q;
    |}
  in
  let space = NSS.of_string src in
  (* Reachable markings: both at P; one moved (x2 token identity); after
     that the remaining token is stuck (no vacancy). *)
  let compiled = NSS.compiled space in
  let stuck =
    List.init (NSS.n_markings space) (fun i -> NSS.marking space i)
    |> List.filter (fun m -> Pepanet.Marking.tokens_at compiled m 0 <> [])
    |> List.for_all (fun m ->
           (* a marking where Q is full cannot fire *)
           Pepanet.Marking.vacant_cells compiled m ~place:1 ~family:0 <> []
           || NS.firings compiled m = [])
  in
  Alcotest.(check bool) "no firing without vacancy" true stuck;
  Alcotest.(check int) "token count invariant" 2
    (List.fold_left
       (fun acc i -> max acc (Pepanet.Marking.token_count (NSS.marking space i)))
       0
       (List.init (NSS.n_markings space) Fun.id));
  Alcotest.(check bool) "both tokens can be the mover" true (NSS.n_markings space >= 3)

let test_enabling_instances_split_rate () =
  (* Two tokens both ready to go, one vacant destination cell: two
     enablings (one per token), each with one phi; total firing rate is
     bounded by the place's apparent rate and the label. *)
  let src =
    {|
      A = (go, 2.0).Done;
      Done = (rest, 1.0).Done;
      token A;
      place P = A[A] <> A[A];
      place Q = A[_];
      trans t = (go, 3.0) from P to Q;
    |}
  in
  let compiled = Pepanet.Net_compile.of_string src in
  let m0 = Pepanet.Marking.initial compiled in
  let firings = NS.firings compiled m0 in
  Alcotest.(check int) "two enablings" 2 (List.length firings);
  let total =
    List.fold_left (fun acc mv -> acc +. Pepa.Rate.value_exn mv.NS.rate) 0.0 firings
  in
  (* apparent place rate 4 (two tokens at 2), label 3: total = min = 3. *)
  Alcotest.check close "bounded total" 3.0 total

let test_phi_split () =
  (* One token, two vacant compatible destination cells: two phi mappings
     sharing the enabling's rate equally. *)
  let src =
    {|
      A = (go, 2.0).Done;
      Done = (rest, 1.0).Done;
      token A;
      place P = A[A];
      place Q = A[_] <> A[_];
      trans t = (go, 2.0) from P to Q;
    |}
  in
  let compiled = Pepanet.Net_compile.of_string src in
  let m0 = Pepanet.Marking.initial compiled in
  let firings = NS.firings compiled m0 in
  Alcotest.(check int) "two phi outcomes" 2 (List.length firings);
  List.iter
    (fun mv -> Alcotest.check close "half each" 1.0 (Pepa.Rate.value_exn mv.NS.rate))
    firings

let test_priorities () =
  let src =
    {|
      A = (fast, 1.0).A2 + (slow, 1.0).A3;
      A2 = (rest, 1.0).A2;
      A3 = (rest, 1.0).A3;
      token A;
      place P = A[A];
      place Q = A[_];
      place R = A[_];
      trans t1 = (slow, 1.0) from P to Q priority 1;
      trans t2 = (fast, 1.0) from P to R priority 2;
    |}
  in
  let compiled = Pepanet.Net_compile.of_string src in
  let m0 = Pepanet.Marking.initial compiled in
  Alcotest.(check int) "both have concession" 2
    (List.length (NS.firings_with_concession compiled m0));
  (match NS.firings compiled m0 with
  | [ move ] ->
      Alcotest.(check bool) "only the high-priority firing is enabled" true
        (match move.NS.label with NS.Fire { action = "fast"; _ } -> true | _ -> false)
  | moves -> Alcotest.failf "expected one enabled firing, got %d" (List.length moves))

let test_static_cooperation_in_place () =
  (* The instant-message net: the FileReader static component drives the
     token through exactly one read per visit. *)
  let space = NSS.of_string Scenarios.Instant_message.pepanet_source in
  Alcotest.(check int) "8 markings" 8 (NSS.n_markings space);
  Alcotest.(check (list int)) "deadlock-free" [] (Markov.Lts.deadlocks (NSS.lts space));
  let pi = NSS.steady_state space in
  let t = Pepanet.Net_measures.throughput space pi in
  Alcotest.check close "transmit = read (one read per cycle)" (t "read") (t "transmit");
  Alcotest.check close "firing throughput by name" (t "transmit")
    (Pepanet.Net_measures.firing_throughput space pi "t_transmit")

let test_net_measures () =
  let space = NSS.of_string simple_net in
  let pi = NSS.steady_state space in
  let locations = Pepanet.Net_measures.token_location_probabilities space pi ~token:0 in
  let total = List.fold_left (fun acc (_, p) -> acc +. p) 0.0 locations in
  Alcotest.check close "location probabilities sum to 1" 1.0 total;
  (* Cycle 1/4 + 1 + 1/2 = 1.75 -> each action throughput 1/1.75. *)
  List.iter
    (fun action ->
      Alcotest.check close ("throughput " ^ action) (1.0 /. 1.75)
        (Pepanet.Net_measures.throughput space pi action))
    [ "work"; "go"; "back" ];
  Alcotest.check close "P(home)" ((0.25 +. 1.0) /. 1.75) (List.assoc "Home" locations);
  Alcotest.check close "expected tokens abroad" (0.5 /. 1.75)
    (Pepanet.Net_measures.expected_tokens_at space pi ~place:"Abroad");
  Alcotest.check close "token state probability Ready" (1.0 /. 1.75)
    (Pepanet.Net_measures.token_state_probability space pi ~token:0 ~state_label:"Ready");
  match Pepanet.Net_measures.marking_probabilities space pi with
  | (_, top) :: _ -> Alcotest.(check bool) "sorted descending" true (top >= 1.0 /. 1.75 -. 1e-9)
  | [] -> Alcotest.fail "no markings"

(* Invariant: every reachable marking of every scenario net conserves the
   token count, and each token occupies at most one cell. *)
let prop_token_conservation =
  let nets =
    [
      simple_net;
      Scenarios.Instant_message.pepanet_source;
    ]
  in
  QCheck2.Test.make ~name:"token conservation over reachable markings" ~count:2
    (QCheck2.Gen.oneofl nets)
    (fun src ->
      let space = NSS.of_string src in
      let compiled = NSS.compiled space in
      let expected = Pepanet.Marking.token_count (Pepanet.Marking.initial compiled) in
      List.for_all
        (fun i ->
          let m = NSS.marking space i in
          Pepanet.Marking.token_count m = expected
          && List.for_all
               (fun tok ->
                 Pepanet.Marking.token_cell m tok.Pepanet.Net_compile.token_id <> None)
               (Array.to_list compiled.Pepanet.Net_compile.tokens))
        (List.init (NSS.n_markings space) Fun.id))

let test_multi_input_firing () =
  (* A balanced two-input/two-output transition: both tokens move in a
     single synchronised firing (the rendezvous of two mobile agents). *)
  let src =
    {|
      A = (meet, 2.0).Moved;
      Moved = (rest, 1.0).Moved;
      token A;
      place P1 = A[A];
      place P2 = A[A];
      place Q1 = A[_];
      place Q2 = A[_];
      trans t = (meet, 2.0) from P1, P2 to Q1, Q2;
    |}
  in
  let compiled = Pepanet.Net_compile.of_string src in
  let m0 = Pepanet.Marking.initial compiled in
  let firings = NS.firings compiled m0 in
  (* One enabling (one candidate per input place); two phi mappings (the
     two token-to-output-place bijections), equally likely. *)
  Alcotest.(check int) "two phi outcomes" 2 (List.length firings);
  let total = List.fold_left (fun acc m -> acc +. Pepa.Rate.value_exn m.NS.rate) 0.0 firings in
  Alcotest.check close "synchronised rate bounded by all participants" 2.0 total;
  List.iter
    (fun move ->
      let m1 = NS.apply m0 move.NS.updates in
      Alcotest.(check int) "both tokens moved" 2
        (List.length
           (Pepanet.Marking.tokens_at compiled m1 2
           @ Pepanet.Marking.tokens_at compiled m1 3));
      Alcotest.(check int) "sources emptied" 0
        (List.length
           (Pepanet.Marking.tokens_at compiled m1 0
           @ Pepanet.Marking.tokens_at compiled m1 1)))
    firings;
  (* The whole space: initial + 2 outcomes. *)
  let space = NSS.of_string src in
  Alcotest.(check int) "three markings" 3 (NSS.n_markings space)

(* Parametric family: m tokens on a ring of k places with one hop
   transition per arc.  Tokens are conserved and, when there is spare
   capacity, the chain is irreducible. *)
let prop_ring_nets =
  let open QCheck2 in
  let gen = Gen.(pair (2 -- 4) (pair (1 -- 2) (float_range 0.5 5.0))) in
  Test.make ~name:"ring nets conserve tokens and stay live" ~count:15 gen
    (fun (k, (m, rate)) ->
      let places =
        List.init k (fun i ->
            Printf.sprintf "place P%d = Agent[%s];" i (if i < m then "Agent" else "_"))
      in
      let hops =
        List.init k (fun i ->
            Printf.sprintf "trans h%d = (hop, %f) from P%d to P%d;" i rate i ((i + 1) mod k))
      in
      let src =
        Printf.sprintf
          "Agent = (hop, %f).Agent;\ntoken Agent;\n%s\n%s" rate
          (String.concat "\n" places) (String.concat "\n" hops)
      in
      let space = NSS.of_string src in
      let conserved =
        List.for_all
          (fun i -> Pepanet.Marking.token_count (NSS.marking space i) = m)
          (List.init (NSS.n_markings space) Fun.id)
      in
      if m >= k then
        (* A full ring has no vacancy anywhere: the single marking is
           dead (the output rule needs a vacant cell). *)
        conserved && NSS.n_markings space = 1 && Markov.Lts.deadlocks (NSS.lts space) = [ 0 ]
      else
        conserved
        && Markov.Ctmc.is_irreducible (Markov.Lts.ctmc (NSS.lts space))
        && Markov.Lts.deadlocks (NSS.lts space) = [])


(* Random small nets built at the AST level: the printer/parser pair
   reaches a fixpoint, compilation succeeds, and reachable markings
   conserve tokens. *)
let prop_random_nets =
  let open QCheck2 in
  let gen =
    Gen.(
      pair (2 -- 3)
        (pair (1 -- 2) (pair (float_range 0.5 4.0) (pair bool bool))))
  in
  Test.make ~name:"random nets: print fixpoint + conserved tokens" ~count:25 gen
    (fun (k, (m, (rate, (with_static, double_cells)))) ->
      let module Sx = Pepa.Syntax in
      let rnum v = Sx.Rnum v in
      let defs =
        [
          Sx.Proc_def
            ( "Agent",
              Sx.Prefix (Pepa.Action.act "work", rnum rate, Sx.Var "Ready") );
          Sx.Proc_def ("Ready", Sx.Prefix (Pepa.Action.act "go", rnum 1.0, Sx.Var "Agent"));
        ]
        @
        if with_static then
          [
            Sx.Proc_def
              ( "Watch",
                Sx.Prefix
                  (Pepa.Action.act "work", Sx.Rpassive 1.0,
                   Sx.Prefix (Pepa.Action.act "note", rnum 2.0, Sx.Var "Watch")) );
          ]
        else []
      in
      let place i =
        let cell full =
          N.Cell { N.cell_type = "Agent"; initial_token = (if full then Some "Agent" else None) }
        in
        let cells =
          if double_cells then
            N.Ctx_coop (cell (i < m), Pepa.Syntax.String_set.empty, cell false)
          else cell (i < m)
        in
        let context =
          if with_static then
            N.Ctx_coop (cells, Pepa.Syntax.String_set.singleton "work", N.Static "Watch")
          else cells
        in
        { N.place_name = Printf.sprintf "P%d" i; context }
      in
      let transitions =
        List.init k (fun i ->
            {
              N.transition_name = Printf.sprintf "h%d" i;
              firing_action = "go";
              firing_rate = rnum 1.0;
              inputs = [ Printf.sprintf "P%d" i ];
              outputs = [ Printf.sprintf "P%d" ((i + 1) mod k) ];
              priority = 1;
            })
      in
      let net =
        {
          N.definitions = defs;
          token_types = [ "Agent" ];
          places = List.init k place;
          transitions;
        }
      in
      (* printer/parser fixpoint *)
      let printed = Pepanet.Net_printer.net_to_string net in
      let reparsed = Pepanet.Net_parser.net_of_string printed in
      let fixpoint = Pepanet.Net_printer.net_to_string reparsed = printed in
      (* semantics invariants *)
      let space = NSS.build (Pepanet.Net_compile.compile net) in
      let conserved =
        List.for_all
          (fun i -> Pepanet.Marking.token_count (NSS.marking space i) = m)
          (List.init (NSS.n_markings space) Fun.id)
      in
      fixpoint && conserved)


let test_net_agrees_with_flat_pepa () =
  (* A net whose only place holds the token and a static component is an
     ordinary PEPA cooperation in net clothing: same state count, same
     measures. *)
  let net_space =
    NSS.of_string
      {|
        Job = (submit, 2.0).Running;
        Running = (finish, 3.0).Job;
        Server = (submit, infty).(finish, infty).Server;
        token Job;
        place Host = Job[Job] <submit, finish> Server;
      |}
  in
  let pepa_space =
    Pepa.Statespace.of_string
      {|
        Job = (submit, 2.0).Running;
        Running = (finish, 3.0).Job;
        Server = (submit, infty).(finish, infty).Server;
        system Job <submit, finish> Server;
      |}
  in
  Alcotest.(check int) "same state count" (Pepa.Statespace.n_states pepa_space)
    (NSS.n_markings net_space);
  let pi_net = NSS.steady_state net_space in
  let pi_pepa = Pepa.Statespace.steady_state pepa_space in
  List.iter
    (fun action ->
      Alcotest.check close ("throughput " ^ action)
        (Pepa.Statespace.throughput pepa_space pi_pepa action)
        (Pepanet.Net_measures.throughput net_space pi_net action))
    [ "submit"; "finish" ]

let test_alpha_choice_firing_split () =
  (* A token offering two go-derivatives: each is a separate enabling
     instance with its proportional share of the bounded rate. *)
  let src =
    {|
      A = (go, 1.0).B + (go, 3.0).C;
      B = (restb, 1.0).B;
      C = (restc, 1.0).C;
      token A;
      place P = A[A];
      place Q = A[_];
      trans t = (go, 4.0) from P to Q;
    |}
  in
  let compiled = Pepanet.Net_compile.of_string src in
  let m0 = Pepanet.Marking.initial compiled in
  let firings = NS.firings compiled m0 in
  Alcotest.(check int) "two derivative outcomes" 2 (List.length firings);
  let rates =
    List.sort compare (List.map (fun m -> Pepa.Rate.value_exn m.NS.rate) firings)
  in
  (match rates with
  | [ low; high ] ->
      Alcotest.check close "1:3 split, bounded by min(4,4)" 1.0 low;
      Alcotest.check close "1:3 split, bounded by min(4,4)" 3.0 high
  | _ -> Alcotest.fail "unexpected rates");
  (* both outcomes reachable and distinct *)
  let targets =
    List.map
      (fun m ->
        let m1 = NS.apply m0 m.NS.updates in
        Pepanet.Marking.label compiled m1)
      firings
    |> List.sort_uniq compare
  in
  Alcotest.(check int) "distinct derivative states" 2 (List.length targets)


let test_duplicated_place_in_transition () =
  (* "from P, P to Q, Q": two distinct tokens must leave P and occupy two
     distinct cells of Q. *)
  let src =
    {|
      A = (go, 1.0).Done;
      Done = (rest, 1.0).Done;
      token A;
      place P = A[A] <> A[A];
      place Q = A[_] <> A[_];
      trans t = (go, 1.0) from P, P to Q, Q;
    |}
  in
  let compiled = Pepanet.Net_compile.of_string src in
  let m0 = Pepanet.Marking.initial compiled in
  let firings = NS.firings compiled m0 in
  Alcotest.(check bool) "firing enabled" true (firings <> []);
  List.iter
    (fun move ->
      let m1 = NS.apply m0 move.NS.updates in
      Alcotest.(check int) "both tokens moved to Q" 2
        (List.length (Pepanet.Marking.tokens_at compiled m1 1));
      Alcotest.(check int) "P emptied" 0
        (List.length (Pepanet.Marking.tokens_at compiled m1 0));
      Alcotest.(check int) "tokens conserved" 2 (Pepanet.Marking.token_count m1))
    firings;
  (* no self-pairing: every update list touches four distinct cells *)
  List.iter
    (fun move ->
      let touched =
        List.filter_map
          (fun u -> match u with NS.Set_cell (c, _) -> Some c | NS.Set_static _ -> None)
          move.NS.updates
      in
      Alcotest.(check int) "four distinct cells" 4
        (List.length (List.sort_uniq compare touched)))
    firings

let test_roaming_scenario () =
  let space = Scenarios.Roaming.space () in
  Alcotest.(check int) "marking count" 960 (NSS.n_markings space);
  Alcotest.(check (list int)) "deadlock-free" [] (Markov.Lts.deadlocks (NSS.lts space));
  let throughputs, locations, occupancy = Scenarios.Roaming.patrol_report () in
  let t name = List.assoc name throughputs in
  Alcotest.check close "probe = hop (one probe per visit)" (t "probe") (t "hop");
  Alcotest.check close "log = probe (monitor follows)" (t "probe") (t "log");
  List.iter
    (fun (place, p) -> Alcotest.check close ("symmetry " ^ place) (1.0 /. 3.0) p)
    locations;
  List.iter
    (fun (place, e) -> Alcotest.check close ("occupancy " ^ place) (2.0 /. 3.0) e)
    occupancy;
  let to_b = Scenarios.Roaming.time_to_reach ~place:"HostB" ~token:0 in
  let to_c = Scenarios.Roaming.time_to_reach ~place:"HostC" ~token:0 in
  Alcotest.(check bool) "farther host takes longer" true (to_b < to_c);
  Alcotest.(check bool) "passage times positive" true (to_b > 0.5)

let suite =
  [
    Alcotest.test_case "net parser" `Quick test_parser;
    Alcotest.test_case "net printer round trip" `Quick test_printer_round_trip;
    Alcotest.test_case "compile-time checks" `Quick test_compile_checks;
    Alcotest.test_case "markings" `Quick test_marking_basics;
    Alcotest.test_case "firing semantics" `Quick test_firing_semantics;
    Alcotest.test_case "vacancy blocks firing" `Quick test_vacancy_blocks_firing;
    Alcotest.test_case "enabling instances split the rate" `Quick test_enabling_instances_split_rate;
    Alcotest.test_case "phi mappings are equiprobable" `Quick test_phi_split;
    Alcotest.test_case "priority-based enabling rule" `Quick test_priorities;
    Alcotest.test_case "static components cooperate in places" `Quick test_static_cooperation_in_place;
    Alcotest.test_case "net measures" `Quick test_net_measures;
    Alcotest.test_case "multi-input synchronised firing" `Quick test_multi_input_firing;
    Alcotest.test_case "net agrees with flat PEPA" `Quick test_net_agrees_with_flat_pepa;
    Alcotest.test_case "alpha-choice firing split" `Quick test_alpha_choice_firing_split;
    Alcotest.test_case "duplicated place in a transition" `Quick test_duplicated_place_in_transition;
    Alcotest.test_case "roaming agents scenario" `Quick test_roaming_scenario;
    QCheck_alcotest.to_alcotest prop_ring_nets;
    QCheck_alcotest.to_alcotest prop_random_nets;
    QCheck_alcotest.to_alcotest prop_token_conservation;
  ]
