(* Strong equivalence (Hillston's Markovian bisimulation) is ordinary
   lumpability of the labelled chain: [Markov.Lump.refine] over the
   transition stream's columns, with action ids as labels and no
   respect key, computes the coarsest such partition. *)

let close = Alcotest.float 1e-9

let strong_equivalence space =
  let lts = Pepa.Statespace.lts space in
  let c = Markov.Lts.columns lts in
  Markov.Lump.refine ~n:(Markov.Lts.n_states lts) ~src:c.Markov.Lts.src ~dst:c.Markov.Lts.dst
    ~rate:c.Markov.Lts.rate ~label:c.Markov.Lts.label ()

(* The partition, the steady state of its quotient chain over classes,
   and that solution disaggregated uniformly back onto the states. *)
let quotient_solve space =
  let part = strong_equivalence space in
  let c = Markov.Lts.columns (Pepa.Statespace.lts space) in
  let quotient =
    Markov.Lump.quotient_ctmc part ~src:c.Markov.Lts.src ~dst:c.Markov.Lts.dst
      ~rate:c.Markov.Lts.rate
  in
  let pi_hat = Markov.Steady.solve quotient in
  (part, pi_hat, Markov.Lump.disaggregate part pi_hat)

let test_replicated_lumping () =
  (* n identical independent components: 2^n states lump to n+1 classes
     (count of components in the second phase). *)
  let space = Pepa.Statespace.of_string "P = (a, 2.0).(b, 3.0).P; system P[4];" in
  Alcotest.(check int) "full space" 16 (Pepa.Statespace.n_states space);
  let part, pi_hat, pi_lumped = quotient_solve space in
  Alcotest.(check int) "binomial lumping" 5 part.Markov.Lump.n_classes;
  (* measures preserved *)
  let pi_full = Pepa.Statespace.steady_state space in
  Alcotest.check close "throughput preserved" (Pepa.Statespace.throughput space pi_full "a")
    (Pepa.Statespace.throughput space pi_lumped "a");
  (* class probabilities sum correctly: the full distribution summed
     over each class equals the quotient's distribution. *)
  Array.iteri
    (fun c total -> Alcotest.check close (Printf.sprintf "class %d" c) total pi_hat.(c))
    (Markov.Lump.aggregate part pi_full)

let test_distinct_states_not_merged () =
  (* A component whose two phases have different rates must not lump. *)
  let space = Pepa.Statespace.of_string "P = (a, 2.0).(b, 3.0).P;" in
  Alcotest.(check int) "no spurious merging" 2 (strong_equivalence space).Markov.Lump.n_classes;
  (* And a symmetric choice does lump: the two branches are equivalent. *)
  let space2 =
    Pepa.Statespace.of_string
      "P = (a, 1.0).Q1 + (a, 1.0).Q2; Q1 = (b, 5.0).P; Q2 = (b, 5.0).P; system P;"
  in
  Alcotest.(check int) "3 states" 3 (Pepa.Statespace.n_states space2);
  Alcotest.(check int) "symmetric branches merge" 2
    (strong_equivalence space2).Markov.Lump.n_classes

let test_action_types_distinguish () =
  (* Same rates, different action types: not equivalent. *)
  let space =
    Pepa.Statespace.of_string
      "P = (a, 1.0).Q1 + (a, 1.0).Q2; Q1 = (b, 5.0).P; Q2 = (c, 5.0).P; system P;"
  in
  Alcotest.(check int) "b and c differ" 3 (strong_equivalence space).Markov.Lump.n_classes

let test_scenario_lumping_preserves_measures () =
  (* The client/server model has no symmetry to exploit, so lumping is
     the identity — and must still preserve everything. *)
  let extraction =
    Extract.Sc_to_pepa.extract [ Scenarios.Tomcat.client (); Scenarios.Tomcat.server_jsp () ]
  in
  let analysis = Choreographer.Workbench.analyse_pepa extraction.Extract.Sc_to_pepa.model in
  let space = analysis.Choreographer.Workbench.space in
  let _, _, pi_lumped = quotient_solve space in
  List.iter
    (fun action ->
      Alcotest.check close ("throughput " ^ action)
        (Pepa.Statespace.throughput space analysis.Choreographer.Workbench.distribution action)
        (Pepa.Statespace.throughput space pi_lumped action))
    (Pepa.Statespace.action_names space)

let test_representatives_consistent () =
  let space = Pepa.Statespace.of_string "P = (a, 2.0).(b, 3.0).P; system P[3];" in
  let part = strong_equivalence space in
  Array.iteri
    (fun c s ->
      Alcotest.(check int)
        (Printf.sprintf "representative of class %d lies in it" c)
        c part.Markov.Lump.class_of.(s))
    part.Markov.Lump.representative;
  (* Classes are numbered by smallest member, so the initial state's is 0. *)
  Alcotest.(check int) "initial class" 0 part.Markov.Lump.class_of.(0)

let suite =
  [
    Alcotest.test_case "replicated components lump" `Quick test_replicated_lumping;
    Alcotest.test_case "distinct states stay distinct" `Quick test_distinct_states_not_merged;
    Alcotest.test_case "action types distinguish" `Quick test_action_types_distinguish;
    Alcotest.test_case "lumping preserves scenario measures" `Quick
      test_scenario_lumping_preserves_measures;
    Alcotest.test_case "representatives" `Quick test_representatives_consistent;
  ]
