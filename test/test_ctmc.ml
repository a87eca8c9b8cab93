module C = Markov.Ctmc
module St = Markov.Steady

let close = Alcotest.float 1e-8

let two_state lambda mu = C.of_transitions ~n:2 [ (0, 1, lambda); (1, 0, mu) ]

let check_distribution msg expected actual =
  Alcotest.(check int) (msg ^ " length") (Array.length expected) (Array.length actual);
  Array.iteri (fun i v -> Alcotest.check close (Printf.sprintf "%s [%d]" msg i) v actual.(i)) expected

let test_sparse () =
  let m = Markov.Sparse.of_triplets ~n_rows:3 ~n_cols:3 [ (0, 1, 2.0); (0, 1, 1.0); (2, 0, 4.0); (1, 1, 5.0) ] in
  Alcotest.(check int) "duplicates merged" 3 (Markov.Sparse.nnz m);
  Alcotest.check close "get merged" 3.0 (Markov.Sparse.get m 0 1);
  Alcotest.check close "get missing" 0.0 (Markov.Sparse.get m 2 2);
  check_distribution "mul_vec" [| 3.0; 5.0; 4.0 |] (Markov.Sparse.mul_vec m [| 1.0; 1.0; 1.0 |]);
  check_distribution "vec_mul" [| 4.0; 8.0; 0.0 |] (Markov.Sparse.vec_mul [| 1.0; 1.0; 1.0 |] m);
  let mt = Markov.Sparse.transpose m in
  Alcotest.check close "transpose" 3.0 (Markov.Sparse.get mt 1 0);
  check_distribution "diagonal" [| 0.0; 5.0; 0.0 |] (Markov.Sparse.diagonal m);
  check_distribution "row sums" [| 3.0; 5.0; 4.0 |] (Markov.Sparse.row_sums m);
  let dense = Markov.Sparse.to_dense m in
  Alcotest.check close "to_dense" 4.0 dense.(2).(0)

let test_dense_lu () =
  let a = [| [| 2.0; 1.0 |]; [| 1.0; 3.0 |] |] in
  let x = Markov.Dense.lu_solve a [| 5.0; 10.0 |] in
  check_distribution "2x2 solve" [| 1.0; 3.0 |] x;
  Alcotest.check close "residual" 0.0 (Markov.Dense.residual_inf a x [| 5.0; 10.0 |]);
  (* A permutation-needing system (zero pivot without pivoting). *)
  let b = [| [| 0.0; 1.0 |]; [| 1.0; 0.0 |] |] in
  check_distribution "pivoting" [| 2.0; 1.0 |] (Markov.Dense.lu_solve b [| 1.0; 2.0 |]);
  match Markov.Dense.lu_solve [| [| 1.0; 2.0 |]; [| 2.0; 4.0 |] |] [| 1.0; 2.0 |] with
  | exception Markov.Dense.Singular _ -> ()
  | _ -> Alcotest.fail "singular matrix accepted"

let test_ctmc_construction () =
  let c = two_state 2.0 3.0 in
  Alcotest.check close "exit 0" 2.0 (C.exit_rate c 0);
  Alcotest.check close "rate" 3.0 (C.rate c 1 0);
  Alcotest.(check bool) "irreducible" true (C.is_irreducible c);
  Alcotest.check close "generator diagonal" (-2.0) (Markov.Sparse.get (C.generator c) 0 0);
  (* Self loops are dropped. *)
  let with_loop = C.of_transitions ~n:2 [ (0, 1, 1.0); (1, 0, 1.0); (0, 0, 9.0) ] in
  Alcotest.check close "self loop ignored" 1.0 (C.exit_rate with_loop 0);
  (match C.of_transitions ~n:2 [ (0, 1, -1.0) ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative rate accepted");
  (match C.of_transitions ~n:2 [ (0, 5, 1.0) ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "out-of-range state accepted");
  let absorbing = C.of_transitions ~n:2 [ (0, 1, 1.0) ] in
  Alcotest.(check bool) "absorbing state" true (C.is_absorbing absorbing 1);
  Alcotest.(check bool) "reducible" false (C.is_irreducible absorbing);
  match C.embedded_probabilities c 0 with
  | [ (1, p) ] -> Alcotest.check close "jump probability" 1.0 p
  | _ -> Alcotest.fail "unexpected jump distribution"

let all_methods = [ St.Direct; St.Gauss_seidel; St.Power ]

let test_two_state_closed_form () =
  let lambda = 2.0 and mu = 3.0 in
  let expected = [| mu /. (lambda +. mu); lambda /. (lambda +. mu) |] in
  List.iter
    (fun method_ ->
      let pi = St.solve ~method_ (two_state lambda mu) in
      check_distribution (St.method_name method_) expected pi)
    all_methods

let test_birth_death_closed_form () =
  (* M/M/1/K with arrival l, service m: pi_i proportional to (l/m)^i. *)
  let k = 5 and l = 1.5 and m = 2.0 in
  let transitions =
    List.concat
      (List.init k (fun i -> [ (i, i + 1, l); (i + 1, i, m) ]))
  in
  let c = C.of_transitions ~n:(k + 1) transitions in
  let rho = l /. m in
  let z = Array.init (k + 1) (fun i -> rho ** float_of_int i) in
  let total = Array.fold_left ( +. ) 0.0 z in
  let expected = Array.map (fun v -> v /. total) z in
  List.iter
    (fun method_ -> check_distribution (St.method_name method_) expected (St.solve ~method_ c))
    all_methods

let test_solver_guards () =
  let absorbing = C.of_transitions ~n:3 [ (0, 1, 1.0); (1, 2, 1.0) ] in
  (match St.solve ~method_:St.Gauss_seidel absorbing with
  | exception St.Not_solvable _ -> ()
  | _ -> Alcotest.fail "iterative method accepted an absorbing chain");
  (* The direct method solves the reducible chain: all mass absorbed. *)
  let pi = St.solve ~method_:St.Direct absorbing in
  check_distribution "absorbing mass" [| 0.0; 0.0; 1.0 |] pi;
  (* Default policy falls back to direct on the same chain. *)
  check_distribution "auto fallback" [| 0.0; 0.0; 1.0 |] (St.solve absorbing);
  let big_options = { St.default_options with St.direct_limit = 1 } in
  match St.solve ~method_:St.Direct ~options:big_options (two_state 1.0 1.0) with
  | exception St.Not_solvable _ -> ()
  | _ -> Alcotest.fail "direct limit not enforced"

let test_residual () =
  let c = two_state 2.0 3.0 in
  let pi = St.solve c in
  Alcotest.(check bool) "residual small" true (St.residual c pi < 1e-10);
  Alcotest.(check bool) "bad vector has residual" true (St.residual c [| 1.0; 0.0 |] > 0.1)

(* Random irreducible birth-death chains: all three methods agree. *)
let prop_solver_agreement =
  let open QCheck2 in
  let gen =
    Gen.(
      pair (2 -- 12) (pair (float_range 0.2 5.0) (float_range 0.2 5.0)))
  in
  Test.make ~name:"solvers agree on random birth-death chains" ~count:50 gen
    (fun (n, (l, m)) ->
      let transitions =
        List.concat (List.init (n - 1) (fun i -> [ (i, i + 1, l); (i + 1, i, m) ]))
      in
      let c = C.of_transitions ~n transitions in
      let reference = St.solve ~method_:St.Direct c in
      List.for_all
        (fun method_ ->
          let pi = St.solve ~method_ c in
          Markov.Measures.distribution_distance reference pi < 1e-6)
        [ St.Gauss_seidel; St.Power ])

(* Solver stats are per domain: a daemon's workers solve different
   models at once, and each must read back its own solve's stats.  The
   handshake orders the solves so a process-wide record would hand the
   first domain the second domain's stats. *)
let test_last_stats_per_domain () =
  let first_solved = Atomic.make false and second_solved = Atomic.make false in
  let rec wait flag = if not (Atomic.get flag) then (Domain.cpu_relax (); wait flag) in
  let solve_then_read ~method_ ~chain ~before ~after =
    Domain.spawn (fun () ->
        Option.iter wait before;
        let _, stats = St.solve_stats ~method_ chain in
        Atomic.set after true;
        wait (if before = None then second_solved else first_solved);
        (stats, St.last_stats ()))
  in
  let first =
    solve_then_read ~method_:St.Gauss_seidel ~chain:(two_state 2.0 3.0) ~before:None
      ~after:first_solved
  in
  let second =
    solve_then_read ~method_:St.Power
      ~chain:(C.of_transitions ~n:3 [ (0, 1, 1.0); (1, 2, 2.0); (2, 0, 3.0) ])
      ~before:(Some first_solved) ~after:second_solved
  in
  List.iter
    (fun (name, domain) ->
      let solved, read_back = Domain.join domain in
      match read_back with
      | Some stats ->
          Alcotest.(check string) (name ^ ": own method") (St.method_name solved.St.method_used)
            (St.method_name stats.St.method_used);
          Alcotest.(check int) (name ^ ": own iterations") solved.St.iterations
            stats.St.iterations
      | None -> Alcotest.failf "%s: no stats recorded on its domain" name)
    [ ("gauss-seidel domain", first); ("power domain", second) ]

let suite =
  [
    Alcotest.test_case "sparse matrices" `Quick test_sparse;
    Alcotest.test_case "dense LU" `Quick test_dense_lu;
    Alcotest.test_case "ctmc construction" `Quick test_ctmc_construction;
    Alcotest.test_case "two-state closed form (all methods)" `Quick test_two_state_closed_form;
    Alcotest.test_case "birth-death closed form (all methods)" `Quick test_birth_death_closed_form;
    Alcotest.test_case "solver guards" `Quick test_solver_guards;
    Alcotest.test_case "residual" `Quick test_residual;
    QCheck_alcotest.to_alcotest prop_solver_agreement;
    Alcotest.test_case "solver stats are per domain" `Quick test_last_stats_per_domain;
  ]
