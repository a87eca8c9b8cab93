(* The Krylov engine: BiCGStab agreement with the stationary methods
   on the example scenarios (plain, aggregated, and at any --jobs),
   random irreducible chains against the direct solver, the
   non-convergence and fallback contracts, the CLI method converter,
   and the packed state-key codec behind the compressed builders. *)

module St = Markov.Steady
module K = Markov.Krylov
module Key = Pepa.Statekey

let distance = Markov.Measures.distribution_distance

let replicated_model n =
  Printf.sprintf
    {|
      Proc = (task, 1.0).(swap, 2.0).Proc;
      Srv = (task, infty).(log, 5.0).Srv;
      system (Proc[%d]) <task> Srv;
    |}
    n

let scenario_chains () =
  [
    ( "instant message",
      Markov.Lts.ctmc
        (Pepanet.Net_statespace.lts
           (Pepanet.Net_statespace.of_string Scenarios.Instant_message.pepanet_source)) );
    ( "pda handover",
      Markov.Lts.ctmc
        (Pepanet.Net_statespace.lts
           (Pepanet.Net_statespace.build
              (Pepanet.Net_compile.compile
                 (Scenarios.Pda.extraction ()).Extract.Ad_to_pepanet.net))) );
    ( "replicated processes (E6)",
      Pepa.Statespace.ctmc (Pepa.Statespace.of_string (replicated_model 6)) );
    ( "tandem queues",
      Pepa.Statespace.ctmc
        (Pepa.Statespace.of_string (Scenarios.Tandem.source ~stations:3 ~capacity:4)) );
  ]

let test_agrees_on_scenarios () =
  List.iter
    (fun (name, chain) ->
      let pi, stats = St.solve_stats ~method_:St.Bicgstab chain in
      Alcotest.(check string)
        (name ^ ": solved by the Krylov engine")
        "bicgstab"
        (St.method_name stats.St.method_used);
      List.iter
        (fun reference_method ->
          let reference = St.solve ~method_:reference_method chain in
          let d = distance reference pi in
          Alcotest.(check bool)
            (Printf.sprintf "%s: bicgstab within 1e-10 of %s (distance %.2e)" name
               (St.method_name reference_method) d)
            true (d < 1e-10))
        [ St.Gauss_seidel; St.Power ])
    (scenario_chains ())

let test_agrees_under_aggregation () =
  (* Symmetry reduction is exact, so the Krylov solve of the reduced
     chain must reproduce the plain chain's throughputs. *)
  let plain = Pepa.Statespace.of_string (replicated_model 6) in
  let reduced = Pepa.Statespace.of_string ~symmetry:true (replicated_model 6) in
  let pi_plain = St.solve ~method_:St.Bicgstab (Pepa.Statespace.ctmc plain) in
  let pi_reduced = St.solve ~method_:St.Bicgstab (Pepa.Statespace.ctmc reduced) in
  List.iter2
    (fun (action, t_plain) (action', t_reduced) ->
      Alcotest.(check string) "same action order" action action';
      Alcotest.(check bool)
        (Printf.sprintf "throughput of %s agrees (%.2e vs %.2e)" action t_plain t_reduced)
        true
        (Float.abs (t_plain -. t_reduced) < 1e-10))
    (Pepa.Statespace.throughputs plain pi_plain)
    (Pepa.Statespace.throughputs reduced pi_reduced)

let test_jobs_determinism () =
  (* 12 replicas give 8192 states, above the power method's pool
     threshold: BiCGStab itself never uses the pool, so a jobs=4 solve
     must be bitwise identical to the sequential one. *)
  let chain = Pepa.Statespace.ctmc (Pepa.Statespace.of_string (replicated_model 12)) in
  let pi_seq, stats_seq = St.solve_stats ~method_:St.Bicgstab ~jobs:1 chain in
  let pi_par, stats_par = St.solve_stats ~method_:St.Bicgstab ~jobs:4 chain in
  Alcotest.(check string) "sequential run is bicgstab" "bicgstab"
    (St.method_name stats_seq.St.method_used);
  Alcotest.(check string) "parallel run is bicgstab" "bicgstab"
    (St.method_name stats_par.St.method_used);
  Alcotest.(check int) "same sweep count" stats_seq.St.iterations stats_par.St.iterations;
  Alcotest.(check bool) "bitwise identical steady vectors" true (pi_seq = pi_par)

let test_unreachable_tolerance () =
  let chain = Pepa.Statespace.ctmc (Pepa.Statespace.of_string (replicated_model 4)) in
  (* The engine reports the cap honestly and still returns a usable
     clamped-and-normalised candidate. *)
  let r = K.bicgstab ~tolerance:(-1.0) ~max_iterations:5 chain in
  Alcotest.(check bool) "outcome is no-convergence" true (r.K.outcome = K.No_convergence);
  Alcotest.(check int) "exactly the cap" 5 r.K.iterations;
  let mass = Array.fold_left ( +. ) 0.0 r.K.pi in
  Alcotest.(check (float 1e-12)) "candidate has unit mass" 1.0 mass;
  Array.iter (fun p -> Alcotest.(check bool) "candidate non-negative" true (p >= 0.0)) r.K.pi;
  (* Steady surfaces the same situation as Did_not_converge, tagged
     with the method that gave up. *)
  let options = { St.default_options with St.tolerance = -1.0; max_iterations = 5 } in
  match St.solve ~method_:St.Bicgstab ~options chain with
  | exception St.Did_not_converge { method_used; iterations; _ } ->
      Alcotest.(check string) "reported as bicgstab" "bicgstab" (St.method_name method_used);
      Alcotest.(check int) "cap reported" 5 iterations
  | _ -> Alcotest.fail "negative tolerance converged"

let test_breakdown_fallback () =
  (* A reducible chain (two disconnected cycles) makes the replaced-row
     system rank-deficient: the Krylov scalars collapse, the restart
     budget runs out, and [Steady] must hand the candidate to the power
     method rather than crash or return garbage. *)
  let chain =
    Markov.Ctmc.of_transitions ~n:4
      [ (0, 1, 1.0); (1, 0, 2.0); (2, 3, 1.0); (3, 2, 2.0) ]
  in
  let r = K.bicgstab ~tolerance:1e-12 ~max_iterations:200 chain in
  (match r.K.outcome with
  | K.Breakdown _ -> ()
  | K.Converged ->
      (* A singular system can still be hit exactly; then the defect
         must genuinely be small. *)
      Alcotest.(check bool) "claimed convergence is real" true (r.K.residual <= 1e-12)
  | K.No_convergence -> Alcotest.fail "expected breakdown or convergence");
  let mass = Array.fold_left ( +. ) 0.0 r.K.pi in
  Alcotest.(check (float 1e-12)) "candidate has unit mass" 1.0 mass;
  (* Whatever the Krylov outcome, the Steady entry point must produce a
     steady vector of the chain. *)
  let pi, stats = St.solve_stats ~method_:St.Bicgstab chain in
  Alcotest.(check bool)
    (Printf.sprintf "fallback result is steady (residual %.2e)" (St.residual chain pi))
    true
    (St.residual chain pi <= 1e-9);
  Alcotest.(check bool) "answer attributed to a real method" true
    (List.mem (St.method_name stats.St.method_used) [ "bicgstab"; "power" ])

(* ------------------------------------------------------------------ *)
(* Random irreducible chains                                           *)
(* ------------------------------------------------------------------ *)

let chain_gen =
  let open QCheck2.Gen in
  2 -- 8 >>= fun n ->
  (* A full cycle guarantees irreducibility; the extra transitions vary
     the structure and the conditioning. *)
  let cycle = List.init n (fun i -> (i, (i + 1) mod n)) in
  list_size (0 -- 12) (pair (0 -- (n - 1)) (0 -- (n - 1))) >>= fun extra ->
  let edges = cycle @ List.filter (fun (i, j) -> i <> j) extra in
  list_size (return (List.length edges)) (float_range 0.05 10.0) >|= fun rates ->
  (n, List.map2 (fun (i, j) r -> (i, j, r)) edges rates)

let prop_agrees_with_direct_on_random_chains =
  QCheck2.Test.make ~name:"bicgstab agrees with the direct solver on random irreducible chains"
    ~count:200 chain_gen (fun (n, transitions) ->
      let chain = Markov.Ctmc.of_transitions ~n transitions in
      let reference = St.solve ~method_:St.Direct chain in
      let pi = St.solve ~method_:St.Bicgstab chain in
      distance reference pi < 1e-9)

(* ------------------------------------------------------------------ *)
(* CLI method selection                                                *)
(* ------------------------------------------------------------------ *)

let test_method_conv () =
  let parse = Cmdliner.Arg.conv_parser Cli_support.method_conv in
  (match parse "bicgstab" with
  | Ok (Some St.Bicgstab) -> ()
  | Ok _ -> Alcotest.fail "bicgstab parsed to another method"
  | Error (`Msg m) -> Alcotest.failf "bicgstab rejected: %s" m);
  let contains haystack needle =
    let n = String.length needle and h = String.length haystack in
    let rec scan i = i + n <= h && (String.sub haystack i n = needle || scan (i + 1)) in
    scan 0
  in
  (match parse "banana" with
  | Error (`Msg m) ->
      Alcotest.(check bool) "error message lists bicgstab" true (contains m "bicgstab")
  | Ok _ -> Alcotest.fail "unknown method accepted");
  let print = Cmdliner.Arg.conv_printer Cli_support.method_conv in
  Alcotest.(check string)
    "round-trips through the printer" "bicgstab"
    (Format.asprintf "%a" print (Some St.Bicgstab))

(* ------------------------------------------------------------------ *)
(* Packed state keys                                                   *)
(* ------------------------------------------------------------------ *)

let vector_gen =
  let open QCheck2.Gen in
  list_size (1 -- 10) (1 -- 40) >>= fun cards ->
  let cards = Array.of_list cards in
  array_size (return (Array.length cards)) (0 -- 1_000_000) >|= fun raw ->
  (cards, Array.mapi (fun i v -> v mod cards.(i)) raw)

let prop_statekey_roundtrip =
  QCheck2.Test.make ~name:"packed state keys round-trip through the arena" ~count:500
    vector_gen (fun (cards, v) ->
      let codec = Key.of_cardinalities cards in
      let key = Key.pack codec v in
      (* Bijection on valid vectors. *)
      Key.unpack codec key = v
      && Key.equal key (Key.pack codec v)
      && Key.hash key = Key.hash (Key.pack codec v)
      &&
      (* Arena storage: write at a non-zero slot and read it back. *)
      let arena = Bytes.make (3 * max 1 (Key.size codec)) '\xff' in
      Key.blit_key codec key arena 1;
      Key.matches codec arena 1 key && Key.unpack_at codec arena 1 = v)

let prop_statekey_injective =
  QCheck2.Test.make ~name:"distinct vectors pack to distinct keys" ~count:500
    QCheck2.Gen.(
      vector_gen >>= fun (cards, v1) ->
      array_size (return (Array.length cards)) (0 -- 1_000_000) >|= fun raw ->
      (cards, v1, Array.mapi (fun i x -> x mod cards.(i)) raw))
    (fun (cards, v1, v2) ->
      let codec = Key.of_cardinalities cards in
      Key.equal (Key.pack codec v1) (Key.pack codec v2) = (v1 = v2))

let test_statekey_validation () =
  Alcotest.check_raises "non-positive cardinality"
    (Invalid_argument "Statekey.of_cardinalities: non-positive cardinality") (fun () ->
      ignore (Key.of_cardinalities [| 2; 0 |]));
  let codec = Key.of_cardinalities [| 3; 5 |] in
  (match Key.pack codec [| 1 |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "length mismatch accepted");
  match Key.pack codec [| 1; 5 |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "out-of-range field accepted"

let suite =
  [
    Alcotest.test_case "bicgstab agrees on example scenarios" `Quick test_agrees_on_scenarios;
    Alcotest.test_case "bicgstab agrees under aggregation" `Quick test_agrees_under_aggregation;
    Alcotest.test_case "bitwise determinism across jobs" `Quick test_jobs_determinism;
    Alcotest.test_case "unreachable tolerance reported honestly" `Quick
      test_unreachable_tolerance;
    Alcotest.test_case "breakdown falls back to a usable solve" `Quick test_breakdown_fallback;
    QCheck_alcotest.to_alcotest prop_agrees_with_direct_on_random_chains;
    Alcotest.test_case "CLI method converter accepts bicgstab" `Quick test_method_conv;
    QCheck_alcotest.to_alcotest prop_statekey_roundtrip;
    QCheck_alcotest.to_alcotest prop_statekey_injective;
    Alcotest.test_case "packed-key validation" `Quick test_statekey_validation;
  ]
