(* The aggregation engine: replica symmetry reduction at exploration
   time and ordinary-lumpability partition refinement before the solve.
   Both are exact — every test here checks an aggregated analysis
   against the unaggregated one, not against golden numbers. *)

let close = Alcotest.float 1e-9

(* The E6 replicated-server family: n interchangeable Procs cooperating
   with one Srv.  The full space is O(2^n); the symmetry-reduced one is
   O(n). *)
let e6 n =
  Printf.sprintf
    "Proc = (task, 1.0).(swap, 2.0).Proc;\n\
     Srv = (task, infty).(log, 5.0).Srv;\n\
     system (Proc[%d]) <task> Srv;"
    n

let check_throughputs_equal what expected actual =
  Alcotest.(check int) (what ^ ": same action count") (List.length expected) (List.length actual);
  List.iter2
    (fun (name_e, v_e) (name_a, v_a) ->
      Alcotest.(check string) (what ^ ": action name") name_e name_a;
      Alcotest.check close (what ^ ": throughput of " ^ name_e) v_e v_a)
    expected actual

let test_symmetry_collapses_replicas () =
  let full = Pepa.Statespace.of_string (e6 5) in
  let reduced = Pepa.Statespace.of_string ~symmetry:true (e6 5) in
  Alcotest.(check int) "full space is exponential" (2 * (1 lsl 5)) (Pepa.Statespace.n_states full);
  Alcotest.(check int) "reduced space is linear" (2 * (5 + 1)) (Pepa.Statespace.n_states reduced);
  Alcotest.(check bool) "symmetry detected" false
    (Pepa.Symmetry.is_trivial (Pepa.Statespace.symmetry reduced))

let test_symmetry_preserves_measures () =
  for n = 2 to 6 do
    let full = Pepa.Statespace.of_string (e6 n) in
    let reduced = Pepa.Statespace.of_string ~symmetry:true (e6 n) in
    let pi_full = Pepa.Statespace.steady_state full in
    let pi_red = Pepa.Statespace.steady_state reduced in
    check_throughputs_equal
      (Printf.sprintf "n=%d" n)
      (Pepa.Statespace.throughputs full pi_full)
      (Pepa.Statespace.throughputs reduced pi_red);
    (* Orbit-averaged local measures: every Proc replica leaf reports
       the same marginal as in the full space. *)
    let compiled = Pepa.Statespace.compiled full in
    for leaf = 0 to n do
      let label = Pepa.Compile.local_label compiled ~leaf ~local:0 in
      Alcotest.check close
        (Printf.sprintf "n=%d leaf %d utilisation" n leaf)
        (Pepa.Statespace.local_state_probability full pi_full ~leaf ~label)
        (Pepa.Statespace.local_state_probability reduced pi_red ~leaf ~label)
    done
  done

let test_lump_e6 () =
  let space = Pepa.Statespace.of_string (e6 4) in
  let part = Pepa.Statespace.lump_partition space in
  Alcotest.(check bool) "lumping compresses the replicated model" true
    (part.Markov.Lump.n_classes < Pepa.Statespace.n_states space);
  let pi = Pepa.Statespace.steady_state space in
  let pi_lumped = Pepa.Statespace.steady_state ~lump:true space in
  check_throughputs_equal "lump"
    (Pepa.Statespace.throughputs space pi)
    (Pepa.Statespace.throughputs space pi_lumped);
  (* The lumped solution aggregates the true one exactly, class by
     class. *)
  let agg_true = Markov.Lump.aggregate part pi in
  let agg_lumped = Markov.Lump.aggregate part pi_lumped in
  Array.iteri
    (fun c v -> Alcotest.check close (Printf.sprintf "class %d mass" c) v agg_lumped.(c))
    agg_true

(* Ordinarily lumpable but asymmetric: S1 and S2 share their exit
   signature (one [go] at rate 1 into S3) so plain refinement would
   merge them, yet their true probabilities differ (S3 feeds S1 at 2.0
   and S2 at 3.0: pi = 1/3, 1/2 vs 1/6).  The respect key must keep
   them apart so per-state and local-state measures survive uniform
   disaggregation exactly. *)
let asymmetric =
  "S1 = (go, 1.0).S3;\n\
   S2 = (go, 1.0).S3;\n\
   S3 = (left, 2.0).S1 + (right, 3.0).S2;\n\
   system S1;"

let test_lump_asymmetric () =
  let space = Pepa.Statespace.of_string asymmetric in
  let pi = Pepa.Statespace.steady_state space in
  let pi_lumped = Pepa.Statespace.steady_state ~lump:true space in
  Array.iteri
    (fun i v -> Alcotest.check close (Printf.sprintf "pi(%d)" i) v pi_lumped.(i))
    pi;
  let compiled = Pepa.Statespace.compiled space in
  for local = 0 to 2 do
    let label = Pepa.Compile.local_label compiled ~leaf:0 ~local in
    Alcotest.check close
      (Printf.sprintf "local probability of %s" label)
      (Pepa.Statespace.local_state_probability space pi ~leaf:0 ~label)
      (Pepa.Statespace.local_state_probability space pi_lumped ~leaf:0 ~label)
  done;
  (* The same model through the workbench: per-state measures reported
     under lump-only aggregation equal the unaggregated ones. *)
  let analyse aggregate = Choreographer.Workbench.analyse_pepa_string ~aggregate asymmetric in
  let plain = analyse Markov.Lump.No_agg in
  let lumped = analyse Markov.Lump.Lumping in
  List.iter2
    (fun (name_p, v_p) (name_l, v_l) ->
      Alcotest.(check string) "probability name" name_p name_l;
      Alcotest.check close ("workbench probability of " ^ name_p) v_p v_l)
    plain.Choreographer.Workbench.results.Choreographer.Results.state_probabilities
    lumped.Choreographer.Workbench.results.Choreographer.Results.state_probabilities

(* The respect key at the Markov level: the same chain as columns.
   Without it the signature merges states 0 and 1; with distinct keys
   they stay apart; with a shared key they may merge again. *)
let test_refine_respect () =
  let src = [| 0; 1; 2; 2 |] and dst = [| 2; 2; 0; 1 |] in
  let rate = [| 1.0; 1.0; 2.0; 3.0 |] and label = [| 0; 0; 1; 2 |] in
  let free = Markov.Lump.refine ~n:3 ~src ~dst ~rate ~label () in
  Alcotest.(check int) "signature alone merges" 2 free.Markov.Lump.n_classes;
  let kept = Markov.Lump.refine ~respect:[| 0; 1; 2 |] ~n:3 ~src ~dst ~rate ~label () in
  Alcotest.(check int) "distinct keys forbid the merge" 3 kept.Markov.Lump.n_classes;
  let shared = Markov.Lump.refine ~respect:[| 7; 7; 4 |] ~n:3 ~src ~dst ~rate ~label () in
  Alcotest.(check int) "shared keys allow the merge" 2 shared.Markov.Lump.n_classes;
  Alcotest.check_raises "wrong length rejected"
    (Invalid_argument "Lump.refine: respect array of the wrong length") (fun () ->
      ignore (Markov.Lump.refine ~respect:[| 0 |] ~n:3 ~src ~dst ~rate ~label ()))

let test_symmetry_then_lump () =
  let full = Pepa.Statespace.of_string (e6 5) in
  let reduced = Pepa.Statespace.of_string ~symmetry:true (e6 5) in
  let pi_full = Pepa.Statespace.steady_state full in
  let pi_both = Pepa.Statespace.steady_state ~lump:true reduced in
  check_throughputs_equal "both"
    (Pepa.Statespace.throughputs full pi_full)
    (Pepa.Statespace.throughputs reduced pi_both)

let test_warm_start () =
  let space = Pepa.Statespace.of_string (e6 4) in
  let c = Pepa.Statespace.ctmc space in
  (* Warm-starting from the disaggregated lumped solution converges to
     the same answer as the cold solve. *)
  let initial = Pepa.Statespace.steady_state ~lump:true space in
  let cold = Markov.Steady.solve ~method_:Markov.Steady.Gauss_seidel c in
  let warm, stats =
    Markov.Steady.solve_stats ~method_:Markov.Steady.Gauss_seidel ~initial c
  in
  Array.iteri (fun i v -> Alcotest.check close (Printf.sprintf "pi(%d)" i) v warm.(i)) cold;
  Alcotest.(check bool) "warm start converged" true
    (stats.Markov.Steady.residual <= Markov.Steady.default_options.Markov.Steady.tolerance);
  Alcotest.check_raises "dimension mismatch rejected"
    (Markov.Steady.Not_solvable "warm-start vector has the wrong dimension") (fun () ->
      ignore (Markov.Steady.solve ~method_:Markov.Steady.Gauss_seidel ~initial:[| 1.0 |] c));
  let zero = Array.make (Markov.Ctmc.n_states c) 0.0 in
  Alcotest.check_raises "massless warm start rejected"
    (Markov.Steady.Not_solvable "warm-start vector has no positive mass") (fun () ->
      ignore (Markov.Steady.solve ~method_:Markov.Steady.Gauss_seidel ~initial:zero c));
  Alcotest.check_raises "negative warm start rejected"
    (Markov.Steady.Not_solvable "warm-start vector has no positive mass") (fun () ->
      ignore
        (Markov.Steady.solve ~method_:Markov.Steady.Gauss_seidel
           ~initial:(Array.make (Markov.Ctmc.n_states c) (-1.0))
           c))

let test_modes () =
  let open Markov.Lump in
  List.iter
    (fun (s, m) -> Alcotest.(check bool) s true (mode_of_string s = Some m))
    [ ("none", No_agg); ("symmetry", Symmetry); ("lump", Lumping); ("both", Both) ];
  Alcotest.(check bool) "unknown rejected" true (mode_of_string "everything" = None);
  List.iter
    (fun m ->
      Alcotest.(check bool) (mode_to_string m) true (mode_of_string (mode_to_string m) = Some m))
    [ No_agg; Symmetry; Lumping; Both ]

(* ---------------------------------------------------------------- *)
(* End-to-end regression: the full pipeline under --aggregate both    *)
(* ---------------------------------------------------------------- *)

module P = Choreographer.Pipeline
module R = Choreographer.Results

let test_pipeline_aggregate_both () =
  let run aggregate =
    let options = { P.default_options with P.rates = Scenarios.Pda.rates; aggregate } in
    P.process_document ~options (Scenarios.Pda.poseidon_project ())
  in
  let plain = run Markov.Lump.No_agg in
  let both = run Markov.Lump.Both in
  let results_plain = List.hd plain.P.results in
  let results_both = List.hd both.P.results in
  check_throughputs_equal "pipeline" results_plain.R.throughputs results_both.R.throughputs;
  (* The reflected documents carry identical annotations: the measure
     strings are formatted from equal-to-tolerance values. *)
  let annotations outcome =
    let diagram = Uml.Xmi_read.activity_of_xml outcome.P.reflected in
    List.filter_map
      (fun (n : Uml.Activity.node) ->
        Uml.Activity.annotation diagram ~node_id:n.Uml.Activity.node_id ~tag:"throughput")
      (Uml.Activity.action_nodes diagram)
  in
  let plain_ann = annotations plain in
  Alcotest.(check bool) "reflected annotations present" true (plain_ann <> []);
  Alcotest.(check (list string)) "reflected annotations identical" plain_ann (annotations both)

let test_pipeline_aggregate_statecharts () =
  let doc =
    Uml.Xmi_write.statecharts_to_xml [ Scenarios.Tomcat.client (); Scenarios.Tomcat.server_jsp () ]
  in
  let run aggregate =
    P.process_document ~options:{ P.default_options with P.aggregate } doc
  in
  let plain = List.hd (run Markov.Lump.No_agg).P.results in
  let both = List.hd (run Markov.Lump.Both).P.results in
  check_throughputs_equal "charts" plain.R.throughputs both.R.throughputs;
  Alcotest.(check int) "same probability count"
    (List.length plain.R.state_probabilities)
    (List.length both.R.state_probabilities);
  List.iter2
    (fun (name_p, v_p) (name_b, v_b) ->
      Alcotest.(check string) "probability name" name_p name_b;
      Alcotest.check close ("probability of " ^ name_p) v_p v_b)
    plain.R.state_probabilities both.R.state_probabilities

let test_telemetry_records_aggregation () =
  Obs.Config.enable ();
  Obs.Metrics.reset ();
  let _ =
    Choreographer.Workbench.analyse_pepa_string ~aggregate:Markov.Lump.Both (e6 4)
  in
  let rendered = Choreographer.Report.telemetry_section () in
  Obs.Config.disable ();
  Obs.Metrics.reset ();
  let contains needle =
    let n = String.length needle and h = String.length rendered in
    let rec scan i = i + n <= h && (String.sub rendered i n = needle || scan (i + 1)) in
    scan 0
  in
  Alcotest.(check bool) "canonical hits recorded" true (contains "statespace.canonical_hits");
  Alcotest.(check bool) "lump classes recorded" true (contains "ctmc.lump.classes_after");
  Alcotest.(check bool) "lump time recorded" true (contains "ctmc.lump.seconds")

(* ---------------------------------------------------------------- *)
(* Random-chain properties                                           *)
(* ---------------------------------------------------------------- *)

(* A random labelled CTMC kept irreducible by a ring backbone; rates
   are drawn from a small set so that lumpable structure actually
   arises. *)
let gen_chain =
  let open QCheck2.Gen in
  let* n = 2 -- 7 in
  let* extras =
    list_size (0 -- (2 * n))
      (pair (pair (0 -- (n - 1)) (0 -- (n - 1))) (pair (oneofl [ 0.5; 1.0; 2.0 ]) (0 -- 1)))
  in
  return (n, extras)

let columns_of (n, extras) =
  let ring = List.init n (fun i -> ((i, (i + 1) mod n), (1.0, 0))) in
  let all = ring @ extras in
  let src = Array.of_list (List.map (fun ((s, _), _) -> s) all) in
  let dst = Array.of_list (List.map (fun ((_, d), _) -> d) all) in
  let rate = Array.of_list (List.map (fun (_, (r, _)) -> r) all) in
  let label = Array.of_list (List.map (fun (_, (_, l)) -> l) all) in
  (n, src, dst, rate, label)

(* The refined partition really is ordinarily lumpable: per label, the
   total rate from a state into any class depends only on the state's
   own class. *)
let prop_refinement_is_lumpable =
  QCheck2.Test.make ~name:"refined partition is ordinarily lumpable" ~count:100 gen_chain
    (fun input ->
      let n, src, dst, rate, label = columns_of input in
      let part = Markov.Lump.refine ~n ~src ~dst ~rate ~label () in
      let n_labels = 1 + Array.fold_left max 0 label in
      let weight s l d =
        let total = ref 0.0 in
        Array.iteri
          (fun k s' ->
            if
              s' = s && label.(k) = l
              && part.Markov.Lump.class_of.(dst.(k)) = d
              && dst.(k) <> s
            then total := !total +. rate.(k))
          src;
        !total
      in
      let ok = ref true in
      for s = 0 to n - 1 do
        let rep = part.Markov.Lump.representative.(part.Markov.Lump.class_of.(s)) in
        for l = 0 to n_labels - 1 do
          for d = 0 to part.Markov.Lump.n_classes - 1 do
            let ws = weight s l d and wr = weight rep l d in
            (* Class-internal flow may differ between members (it is a
               self-loop of the quotient); only cross-class flow must
               agree. *)
            if
              d <> part.Markov.Lump.class_of.(s)
              && abs_float (ws -. wr) > 1e-9 *. (1.0 +. abs_float ws +. abs_float wr)
            then ok := false
          done
        done
      done;
      !ok)

(* The lumped steady state is the exact aggregation of the full one,
   and the quotient preserves every class's total outflow. *)
let prop_lumped_solution_aggregates =
  QCheck2.Test.make ~name:"lumped steady state aggregates the full one" ~count:100 gen_chain
    (fun input ->
      let n, src, dst, rate, label = columns_of input in
      let c = Markov.Ctmc.of_arrays ~n ~src ~dst ~rate in
      let part = Markov.Lump.refine ~n ~src ~dst ~rate ~label () in
      let q = Markov.Lump.quotient_ctmc part ~src ~dst ~rate in
      let pi = Markov.Steady.solve c in
      let pi_hat = Markov.Steady.solve q in
      let agg = Markov.Lump.aggregate part pi in
      let ok = ref true in
      Array.iteri
        (fun cl v -> if abs_float (v -. pi_hat.(cl)) > 1e-9 then ok := false)
        agg;
      (* Per-class cross-class outflow is preserved by the quotient. *)
      for cl = 0 to part.Markov.Lump.n_classes - 1 do
        let rep = part.Markov.Lump.representative.(cl) in
        let out = ref 0.0 in
        Array.iteri
          (fun k s ->
            if s = rep && part.Markov.Lump.class_of.(dst.(k)) <> cl then
              out := !out +. rate.(k))
          src;
        if abs_float (!out -. Markov.Ctmc.exit_rate q cl) > 1e-9 *. (1.0 +. !out) then
          ok := false
      done;
      !ok)

(* Replica symmetry on random member counts: reduced and full analyses
   agree on every throughput. *)
let prop_symmetry_exact =
  QCheck2.Test.make ~name:"symmetry reduction preserves throughputs" ~count:20
    QCheck2.Gen.(2 -- 6)
    (fun n ->
      let full = Pepa.Statespace.of_string (e6 n) in
      let reduced = Pepa.Statespace.of_string ~symmetry:true (e6 n) in
      let th_full = Pepa.Statespace.throughputs full (Pepa.Statespace.steady_state full) in
      let th_red =
        Pepa.Statespace.throughputs reduced (Pepa.Statespace.steady_state reduced)
      in
      List.for_all2
        (fun (a, va) (b, vb) -> a = b && abs_float (va -. vb) <= 1e-9)
        th_full th_red)

(* ------------------------------------------------------------------ *)
(* Random small PEPA terms                                             *)
(* ------------------------------------------------------------------ *)

let gen_model =
  let open QCheck2.Gen in
  let action = oneofl [ "a"; "b"; "c" ] in
  let rate = 1 -- 40 >|= fun r -> float_of_int r /. 10.0 in
  let component name =
    list_size (1 -- 3) (pair action rate) >|= fun steps ->
    Printf.sprintf "%s = %s%s;" name
      (String.concat ""
         (List.map (fun (a, r) -> Printf.sprintf "(%s, %.1f)." a r) steps))
      name
  in
  let coop = oneofl [ "<>"; "<a>"; "<b>"; "<a, b>"; "<a, b, c>" ] in
  let replicas = 1 -- 3 in
  component "P" >>= fun p ->
  component "Q" >>= fun q ->
  coop >>= fun set ->
  replicas >>= fun np ->
  replicas >|= fun nq ->
  Printf.sprintf "%s\n%s\nsystem (P[%d]) %s (Q[%d]);" p q np set nq

let throughputs_agree plain other =
  List.length other = List.length plain
  && List.for_all2 (fun (a, x) (b, y) -> a = b && Float.abs (x -. y) <= 1e-9) plain other

(* Every aggregation mode must report the plain solve's throughputs:
   symmetry and lumping only merge states no throughput can tell apart.
   Terms the plain solve rejects (passive escapes, deadlocked chains)
   are discarded. *)
let prop_random_terms_aggregate_exactly =
  QCheck2.Test.make ~name:"random terms aggregate exactly" ~count:60
    ~print:(fun s -> s)
    gen_model
    (fun source ->
      let throughputs aggregate =
        (Choreographer.Workbench.analyse_pepa_string ~aggregate source)
          .Choreographer.Workbench.results.Choreographer.Results.throughputs
      in
      match throughputs Markov.Lump.No_agg with
      | exception Choreographer.Workbench.Analysis_error _ -> QCheck2.assume_fail ()
      | plain ->
          List.for_all
            (fun aggregate -> throughputs_agree plain (throughputs aggregate))
            Markov.Lump.[ Symmetry; Lumping; Both ])

(* Strong equivalence on the same terms: the coarsest lumping with no
   respect key, its quotient solved and disaggregated uniformly, still
   reports every throughput of the plain solve, because its classes
   never mix per-action exit signatures. *)
let prop_strong_lumping_keeps_throughputs =
  QCheck2.Test.make ~name:"strong lumping keeps throughputs" ~count:60
    ~print:(fun s -> s)
    gen_model
    (fun source ->
      match Choreographer.Workbench.analyse_pepa_string source with
      | exception Choreographer.Workbench.Analysis_error _ -> QCheck2.assume_fail ()
      | analysis ->
          let space = analysis.Choreographer.Workbench.space in
          let plain = analysis.Choreographer.Workbench.results.Choreographer.Results.throughputs in
          let _, _, pi = Test_equivalence.quotient_solve space in
          throughputs_agree plain (Pepa.Statespace.throughputs space pi))

let suite =
  [
    Alcotest.test_case "symmetry collapses replicas" `Quick test_symmetry_collapses_replicas;
    Alcotest.test_case "symmetry preserves measures" `Quick test_symmetry_preserves_measures;
    Alcotest.test_case "lumping the replicated model" `Quick test_lump_e6;
    Alcotest.test_case "asymmetric lumpable chain stays exact" `Quick test_lump_asymmetric;
    Alcotest.test_case "respect key constrains refinement" `Quick test_refine_respect;
    Alcotest.test_case "symmetry then lumping" `Quick test_symmetry_then_lump;
    Alcotest.test_case "warm-started solve" `Quick test_warm_start;
    Alcotest.test_case "aggregation modes" `Quick test_modes;
    Alcotest.test_case "pipeline under --aggregate both" `Quick test_pipeline_aggregate_both;
    Alcotest.test_case "statechart pipeline aggregated" `Quick
      test_pipeline_aggregate_statecharts;
    Alcotest.test_case "telemetry records aggregation" `Quick test_telemetry_records_aggregation;
    QCheck_alcotest.to_alcotest prop_refinement_is_lumpable;
    QCheck_alcotest.to_alcotest prop_lumped_solution_aggregates;
    QCheck_alcotest.to_alcotest prop_symmetry_exact;
    QCheck_alcotest.to_alcotest prop_random_terms_aggregate_exactly;
    QCheck_alcotest.to_alcotest prop_strong_lumping_keeps_throughputs;
  ]
