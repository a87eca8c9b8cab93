(* The flat-array hot path: array-based CSR assembly checked against a
   list-based reference, transpose round-trips, allocation-free solver
   iteration semantics, and cross-method agreement on the example
   scenarios. *)

module Sp = Markov.Sparse
module St = Markov.Steady

let close = Alcotest.float 1e-9

(* The seed's list-based construction, kept verbatim as the reference
   the counting-sort path must match. *)
let reference_dense ~n_rows ~n_cols triplets =
  let dense = Array.make_matrix n_rows n_cols 0.0 in
  List.iter (fun (i, j, v) -> dense.(i).(j) <- dense.(i).(j) +. v) triplets;
  dense

let check_matrix msg expected m =
  let actual = Sp.to_dense m in
  Array.iteri
    (fun i row ->
      Array.iteri
        (fun j v ->
          Alcotest.check close (Printf.sprintf "%s (%d,%d)" msg i j) v actual.(i).(j))
        row)
    expected;
  (* Canonical CSR: monotone row_ptr, strictly increasing columns per row. *)
  for i = 0 to m.Sp.n_rows - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "%s row_ptr monotone at %d" msg i)
      true
      (m.Sp.row_ptr.(i) <= m.Sp.row_ptr.(i + 1));
    for k = m.Sp.row_ptr.(i) to m.Sp.row_ptr.(i + 1) - 2 do
      Alcotest.(check bool)
        (Printf.sprintf "%s columns strictly increasing in row %d" msg i)
        true
        (m.Sp.col_index.(k) < m.Sp.col_index.(k + 1))
    done
  done

let arrays_of_triplets triplets =
  let n = List.length triplets in
  let rows = Array.make n 0 and cols = Array.make n 0 and values = Array.make n 0.0 in
  List.iteri
    (fun k (i, j, v) ->
      rows.(k) <- i;
      cols.(k) <- j;
      values.(k) <- v)
    triplets;
  (rows, cols, values)

let test_of_arrays_explicit () =
  (* Unsorted input with duplicate coordinates summed. *)
  let triplets = [ (2, 1, 1.0); (0, 2, 3.0); (2, 1, 0.5); (0, 0, -1.0); (1, 2, 2.0) ] in
  let rows, cols, values = arrays_of_triplets triplets in
  let m = Sp.of_arrays ~drop_diagonal:false ~n_rows:3 ~n_cols:3 ~rows ~cols ~values in
  check_matrix "unsorted+duplicates" (reference_dense ~n_rows:3 ~n_cols:3 triplets) m;
  Alcotest.(check int) "duplicates merged" 4 (Sp.nnz m);
  (* The input arrays are not modified. *)
  let rows', cols', values' = arrays_of_triplets triplets in
  Alcotest.(check bool) "rows untouched" true (rows = rows');
  Alcotest.(check bool) "cols untouched" true (cols = cols');
  Alcotest.(check bool) "values untouched" true (values = values');
  (* Empty matrix. *)
  let empty =
    Sp.of_arrays ~drop_diagonal:false ~n_rows:4 ~n_cols:2 ~rows:[||] ~cols:[||] ~values:[||]
  in
  Alcotest.(check int) "empty nnz" 0 (Sp.nnz empty);
  Alcotest.check close "empty get" 0.0 (Sp.get empty 3 1);
  (* Out-of-range and mismatched lengths are rejected. *)
  (match
     Sp.of_arrays ~drop_diagonal:false ~n_rows:2 ~n_cols:2 ~rows:[| 2 |] ~cols:[| 0 |]
       ~values:[| 1.0 |]
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "out-of-range row accepted");
  match
    Sp.of_arrays ~drop_diagonal:false ~n_rows:2 ~n_cols:2 ~rows:[| 0 |] ~cols:[||]
      ~values:[| 1.0 |]
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "mismatched lengths accepted"

let triplet_gen =
  let open QCheck2.Gen in
  pair (1 -- 8) (1 -- 8) >>= fun (n_rows, n_cols) ->
  list_size (0 -- 40)
    (triple (0 -- (n_rows - 1)) (0 -- (n_cols - 1)) (float_range (-2.0) 2.0))
  >|= fun triplets -> (n_rows, n_cols, triplets)

let prop_of_arrays_matches_reference =
  QCheck2.Test.make ~name:"array CSR assembly matches list-based reference" ~count:200
    triplet_gen (fun (n_rows, n_cols, triplets) ->
      let rows, cols, values = arrays_of_triplets triplets in
      let m = Sp.of_arrays ~drop_diagonal:false ~n_rows ~n_cols ~rows ~cols ~values in
      let expected = reference_dense ~n_rows ~n_cols triplets in
      let actual = Sp.to_dense m in
      let ok = ref true in
      Array.iteri
        (fun i row ->
          Array.iteri (fun j v -> if abs_float (v -. actual.(i).(j)) > 1e-9 then ok := false) row)
        expected;
      (* of_triplets must agree with of_arrays on identical input. *)
      let via_list = Sp.of_triplets ~n_rows ~n_cols triplets in
      !ok
      && via_list.Sp.row_ptr = m.Sp.row_ptr
      && via_list.Sp.col_index = m.Sp.col_index
      && via_list.Sp.values = m.Sp.values)

let prop_transpose_round_trip =
  QCheck2.Test.make ~name:"transpose (transpose m) = m" ~count:200 triplet_gen
    (fun (n_rows, n_cols, triplets) ->
      let m = Sp.of_triplets ~n_rows ~n_cols triplets in
      let mtt = Sp.transpose (Sp.transpose m) in
      mtt.Sp.n_rows = m.Sp.n_rows
      && mtt.Sp.n_cols = m.Sp.n_cols
      && mtt.Sp.row_ptr = m.Sp.row_ptr
      && mtt.Sp.col_index = m.Sp.col_index
      && mtt.Sp.values = m.Sp.values)

(* Every CSR assembly route goes through one per-row sort and merge.
   The reference: stable-sort the entries by (row, col) and sum each
   run of equal coordinates left to right — for a CTMC after dropping
   self-loops, with the generator diagonal the left-to-right sum of
   each row's rates.  All four routes must match it bit for bit. *)
let reference_csr ~n_rows triplets =
  let sorted =
    List.stable_sort (fun (i, j, _) (i', j', _) -> compare (i, j) (i', j')) triplets
  in
  let merged =
    List.fold_left
      (fun acc (i, j, v) ->
        match acc with
        | (i', j', w) :: rest when i = i' && j = j' -> (i, j, w +. v) :: rest
        | _ -> (i, j, v) :: acc)
      [] sorted
    |> List.rev
  in
  Array.init n_rows (fun i ->
      List.filter_map (fun (i', j, v) -> if i' = i then Some (j, v) else None) merged)

let csr_rows m =
  Array.init m.Sp.n_rows (fun i ->
      List.init (m.Sp.row_ptr.(i + 1) - m.Sp.row_ptr.(i)) (fun k ->
          let k = m.Sp.row_ptr.(i) + k in
          (m.Sp.col_index.(k), m.Sp.values.(k))))

let bitwise_rows a b =
  Array.length a = Array.length b
  && Array.for_all2
       (List.equal (fun (j, v) (j', v') ->
            j = j' && Int64.equal (Int64.bits_of_float v) (Int64.bits_of_float v')))
       a b

(* The entries grouped by row in input order: what a state-space
   builder streams into [of_grouped]. *)
let grouped ~n_rows triplets =
  let by_row = List.stable_sort (fun (i, _, _) (i', _, _) -> compare i i') triplets in
  let row_start = Array.make (n_rows + 1) 0 in
  List.iter (fun (i, _, _) -> row_start.(i + 1) <- row_start.(i + 1) + 1) by_row;
  for i = 1 to n_rows do
    row_start.(i) <- row_start.(i) + row_start.(i - 1)
  done;
  let _, cols, values = arrays_of_triplets by_row in
  (row_start, cols, values)

let generator_reference ~n triplets =
  reference_csr ~n_rows:n (List.filter (fun (i, j, _) -> i <> j) triplets)
  |> Array.mapi (fun i row ->
         (* An absorbing state's zero diagonal is not stored. *)
         let exit = List.fold_left (fun acc (_, v) -> acc +. v) 0.0 row in
         if exit = 0.0 then row
         else List.stable_sort (fun (j, _) (j', _) -> compare j j') ((i, -.exit) :: row))

let prop_assembly_routes_bitwise =
  let gen =
    let open QCheck2.Gen in
    1 -- 8 >>= fun n ->
    list_size (0 -- 40) (triple (0 -- (n - 1)) (0 -- (n - 1)) (float_range 0.01 10.0))
    >|= fun triplets -> (n, triplets)
  in
  QCheck2.Test.make ~name:"CSR assembly routes agree bitwise with a stable-sort reference"
    ~count:300 gen (fun (n, triplets) ->
      let rows, cols, values = arrays_of_triplets triplets in
      let row_start, g_cols, g_values = grouped ~n_rows:n triplets in
      let sparse_routes =
        [
          Sp.of_arrays ~drop_diagonal:false ~n_rows:n ~n_cols:n ~rows ~cols ~values;
          Sp.of_grouped ~drop_diagonal:false ~n_rows:n ~n_cols:n ~row_start
            ~col:(Array.get g_cols) ~value:(Array.get g_values);
          Sp.of_triplets ~n_rows:n ~n_cols:n triplets;
        ]
      in
      let ctmc_routes =
        [
          Markov.Ctmc.of_arrays ~n ~src:rows ~dst:cols ~rate:values;
          Markov.Ctmc.of_grouped ~n ~row_start ~dst:(Array.get g_cols)
            ~rate:(Array.get g_values);
          Markov.Ctmc.of_transitions ~n triplets;
        ]
      in
      let expected = reference_csr ~n_rows:n triplets in
      let expected_generator = generator_reference ~n triplets in
      List.for_all (fun m -> bitwise_rows expected (csr_rows m)) sparse_routes
      && List.for_all
           (fun c ->
             bitwise_rows expected_generator (csr_rows (Markov.Ctmc.generator c))
             && bitwise_rows expected_generator
                  (csr_rows (Sp.transpose (Markov.Ctmc.generator_transposed c))))
           ctmc_routes)

(* ------------------------------------------------------------------ *)
(* Solver iteration semantics                                          *)
(* ------------------------------------------------------------------ *)

let test_exact_iteration_count () =
  (* An unreachable tolerance forces the cap; the reported count must be
     the exact number of sweeps even when the cap is not a multiple of
     the residual stride. *)
  let c = Markov.Ctmc.of_transitions ~n:2 [ (0, 1, 2.0); (1, 0, 3.0) ] in
  List.iter
    (fun (max_iterations, residual_stride) ->
      let options = { St.default_options with St.tolerance = -1.0; max_iterations; residual_stride } in
      match St.solve ~method_:St.Gauss_seidel ~options c with
      | exception St.Did_not_converge { iterations; _ } ->
          Alcotest.(check int)
            (Printf.sprintf "cap %d stride %d" max_iterations residual_stride)
            max_iterations iterations
      | _ -> Alcotest.fail "negative tolerance converged")
    [ (13, 8); (8, 8); (5, 8); (100, 7); (1, 4) ]

let test_first_check_decisive () =
  (* A tolerance admitting the uniform start vector must return without
     a single sweep. *)
  let c = Markov.Ctmc.of_transitions ~n:2 [ (0, 1, 1.0); (1, 0, 1.0) ] in
  let options = { St.default_options with St.tolerance = 10.0; St.max_iterations = 0 } in
  let pi, stats = St.solve_stats ~method_:St.Gauss_seidel ~options c in
  Alcotest.(check int) "no sweeps" 0 stats.St.iterations;
  Alcotest.check close "uniform" 0.5 pi.(0)

let test_sor () =
  let c = Markov.Ctmc.of_transitions ~n:2 [ (0, 1, 2.0); (1, 0, 3.0) ] in
  let reference = St.solve ~method_:St.Direct c in
  List.iter
    (fun omega ->
      let pi = St.solve ~method_:(St.Sor omega) c in
      Alcotest.(check bool)
        (Printf.sprintf "sor %.2f agrees" omega)
        true
        (Markov.Measures.distribution_distance reference pi < 1e-9))
    [ 0.8; 1.0; 1.2; 1.5 ];
  match St.solve ~method_:(St.Sor 2.5) c with
  | exception St.Not_solvable _ -> ()
  | _ -> Alcotest.fail "out-of-range relaxation accepted"

(* ------------------------------------------------------------------ *)
(* Cross-method agreement on the example scenarios                     *)
(* ------------------------------------------------------------------ *)

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
    ( "file protocol",
      Markov.Lts.ctmc
        (Pepanet.Net_statespace.lts
           (Pepanet.Net_statespace.build
              (Pepanet.Net_compile.compile
                 (Scenarios.File_protocol.extraction ()).Extract.Ad_to_pepanet.net))) );
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
    ("replicated processes (E6)", Pepa.Statespace.ctmc (Pepa.Statespace.of_string (replicated_model 6)));
  ]

let test_methods_agree_on_scenarios () =
  List.iter
    (fun (name, chain) ->
      let reference = St.solve ~method_:St.Direct chain in
      List.iter
        (fun method_ ->
          let pi = St.solve ~method_ chain in
          let distance = Markov.Measures.distribution_distance reference pi in
          Alcotest.(check bool)
            (Printf.sprintf "%s: %s within 1e-9 of direct (distance %.2e)" name
               (St.method_name method_) distance)
            true (distance < 1e-9))
        (* Under-relaxed SOR: over-relaxation can diverge on strongly
           cyclic chains (it does on the instant-message ring). *)
        [ St.Gauss_seidel; St.Sor 0.9; St.Power ])
    (scenario_chains ())

(* ------------------------------------------------------------------ *)
(* The transition stream                                               *)
(* ------------------------------------------------------------------ *)

let test_stream_consistent () =
  let space = Pepa.Statespace.of_string (replicated_model 4) in
  let lts = Pepa.Statespace.lts space in
  let all = ref [] in
  Markov.Lts.iter lts (fun ~src ~label ~rate ~dst -> all := (src, label, rate, dst) :: !all);
  let all = List.rev !all in
  Alcotest.(check int) "n_transitions is the stream length" (List.length all)
    (Pepa.Statespace.n_transitions space);
  (* Each row visits exactly its source's slice of the whole stream. *)
  for s = 0 to Pepa.Statespace.n_states space - 1 do
    let row = ref [] in
    Markov.Lts.iter_row lts s (fun ~label ~rate ~dst -> row := (s, label, rate, dst) :: !row);
    Alcotest.(check bool)
      (Printf.sprintf "outgoing of %d" s)
      true
      (List.filter (fun (src, _, _, _) -> src = s) all = List.rev !row)
  done;
  (* Source and target sets are the sorted distinct ends of the
     matching transitions. *)
  let task (_, label, _, _) = Pepa.Action.equal label (Pepa.Action.act "task") in
  let ends pick = List.sort_uniq compare (List.map pick (List.filter task all)) in
  let is_task = Pepa.Action.equal (Pepa.Action.act "task") in
  Alcotest.(check (list int)) "sources" (ends (fun (s, _, _, _) -> s))
    (Markov.Lts.sources lts is_task);
  Alcotest.(check (list int)) "targets" (ends (fun (_, _, _, d) -> d))
    (Markov.Lts.targets lts is_task);
  (* The net layer's flux table matches a sum over the stream. *)
  let net = Pepanet.Net_statespace.of_string Scenarios.Instant_message.pepanet_source in
  let pi = Pepanet.Net_statespace.steady_state net in
  let lts = Pepanet.Net_statespace.lts net in
  let flux = Markov.Lts.flux lts pi in
  Array.iteri
    (fun id label ->
      let expected = ref 0.0 in
      Markov.Lts.iter lts (fun ~src ~label:l ~rate ~dst:_ ->
          if l = label then expected := !expected +. (pi.(src) *. rate));
      Alcotest.check close (Printf.sprintf "flux of label %d" id) !expected flux.(id))
    (Markov.Lts.labels lts)

let suite =
  [
    Alcotest.test_case "array CSR assembly" `Quick test_of_arrays_explicit;
    QCheck_alcotest.to_alcotest prop_of_arrays_matches_reference;
    QCheck_alcotest.to_alcotest prop_transpose_round_trip;
    QCheck_alcotest.to_alcotest prop_assembly_routes_bitwise;
    Alcotest.test_case "exact iteration count under stride" `Quick test_exact_iteration_count;
    Alcotest.test_case "decisive first residual check" `Quick test_first_check_decisive;
    Alcotest.test_case "SOR" `Quick test_sor;
    Alcotest.test_case "methods agree on example scenarios" `Quick test_methods_agree_on_scenarios;
    Alcotest.test_case "stream rows and flux consistent" `Quick test_stream_consistent;
  ]
