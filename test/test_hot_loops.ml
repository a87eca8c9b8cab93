(* The loops that run once per state, successor or stored nonzero:
   symmetric canonicalisation (of PEPA replicas and of PEPA-net cells),
   the solver sweeps and the marginals pass.
   Each is checked against the code it replaced, kept here as the
   reference, bit for bit, and for the allocation it must not do. *)

module Sym = Pepa.Symmetry
module Ss = Pepa.Statespace
module St = Markov.Steady

(* Minor-heap words allocated while [f] runs.  The counter reads are
   unboxed, so an empty [f] measures 0. *)
let alloc_words f =
  let before = Gc.minor_words () in
  let result = f () in
  let after = Gc.minor_words () in
  (after -. before, result)

(* Telemetry records residual points and span attributes; the budgets
   below are for the default, collection-off configuration. *)
let with_telemetry_off f =
  let was = Obs.Config.enabled () in
  Obs.Config.disable ();
  Fun.protect ~finally:(fun () -> if was then Obs.Config.enable ()) f

(* ------------------------------------------------------------------ *)
(* Canonicalisation                                                    *)
(* ------------------------------------------------------------------ *)

(* The sort-based canonicalisation the in-place insertion sort replaced:
   sort an index permutation of each group's replicas, copy the sorted
   sub-vectors out, write back the ones that differ. *)
let reference_canonicalise groups (vec : int array) =
  let compare_sub (a : int array) (b : int array) =
    let n = Array.length a in
    let rec go i =
      if i >= n then 0
      else
        let c = compare vec.(a.(i)) vec.(b.(i)) in
        if c <> 0 then c else go (i + 1)
    in
    go 0
  in
  let changed = ref false in
  Array.iter
    (fun replicas ->
      let k = Array.length replicas in
      let order = Array.init k Fun.id in
      Array.sort (fun a b -> compare_sub replicas.(a) replicas.(b)) order;
      let sorted = Array.init k (fun r -> Array.map (fun l -> vec.(l)) replicas.(order.(r))) in
      for r = 0 to k - 1 do
        let leaves = replicas.(r) in
        for p = 0 to Array.length leaves - 1 do
          if vec.(leaves.(p)) <> sorted.(r).(p) then begin
            vec.(leaves.(p)) <- sorted.(r).(p);
            changed := true
          end
        done
      done)
    groups;
  !changed

(* Random system equations over two components, nesting replication and
   cooperation up to three deep, so groups nest inside groups. *)
let gen_structure =
  let open QCheck2.Gen in
  let set = oneofl [ "<>"; "<a>"; "<b>"; "<a, b>" ] in
  let rec term depth =
    if depth = 0 then oneofl [ "P"; "Q" ]
    else
      frequency
        [
          (1, oneofl [ "P"; "Q" ]);
          (2, pair (term (depth - 1)) (2 -- 3) >|= fun (t, k) -> Printf.sprintf "(%s)[%d]" t k);
          ( 2,
            triple (term (depth - 1)) set (term (depth - 1)) >|= fun (a, s, b) ->
            Printf.sprintf "(%s) %s (%s)" a s b );
        ]
  in
  0 -- 3 >>= term

let structure_model system =
  Printf.sprintf "P = (a, 1.0).(b, 2.0).P;\nQ = (b, 1.0).(a, 3.0).Q;\nsystem %s;" system

(* Random vectors and successor-like ones (a canonical vector with one
   leaf changed, the shape derive canonicalises), compared with the
   reference on the vector and the [changed] flag; every call must add
   nothing to the minor heap. *)
let prop_canonicalise_matches_sort =
  QCheck2.Test.make ~name:"canonicalise matches the sort" ~count:200
    ~print:QCheck2.Print.(pair string int)
    QCheck2.Gen.(pair gen_structure (0 -- 1_000_000))
    (fun (system, seed) ->
      let compiled = Pepa.Compile.of_string (structure_model system) in
      let sym = Sym.detect compiled in
      let groups = Sym.groups sym in
      let n = Pepa.Compile.n_leaves compiled in
      let rng = Random.State.make [| seed |] in
      let random_vector () = Array.init n (fun _ -> Random.State.int rng 3) in
      let successor () =
        let v = random_vector () in
        ignore (reference_canonicalise groups v);
        v.(Random.State.int rng n) <- Random.State.int rng 3;
        v
      in
      List.for_all
        (fun vec ->
          let expected = Array.copy vec and actual = Array.copy vec in
          let expected_changed = reference_canonicalise groups expected in
          let words, changed = alloc_words (fun () -> Sym.canonicalise sym actual) in
          if words <> 0.0 then QCheck2.Test.fail_reportf "%s: %.0f words allocated" system words;
          changed = expected_changed && actual = expected)
        (List.init 20 (fun k -> if k mod 2 = 0 then random_vector () else successor ())))

(* The marking sort the vector canonicaliser replaced for PEPA nets:
   sort each group's cell contents by [compare] on [Marking.cell_state],
   copying the marking at the first unsorted group. *)
let reference_net_canonicalise groups (marking : Pepanet.Marking.t) =
  let cells = ref None in
  Array.iter
    (fun group ->
      let current = match !cells with Some c -> c | None -> marking.Pepanet.Marking.cells in
      let sorted = ref true in
      for i = 0 to Array.length group - 2 do
        if compare current.(group.(i)) current.(group.(i + 1)) > 0 then sorted := false
      done;
      if not !sorted then begin
        let c =
          match !cells with
          | Some c -> c
          | None ->
              let c = Array.copy marking.Pepanet.Marking.cells in
              cells := Some c;
              c
        in
        let values = Array.map (fun cell -> c.(cell)) group in
        Array.sort compare values;
        Array.iteri (fun i cell -> c.(cell) <- values.(i)) group
      end)
    groups;
  match !cells with
  | None -> (marking, false)
  | Some c -> ({ marking with Pepanet.Marking.cells = c }, true)

(* Random markings of the [tokens]-agent patrol: each token in a random
   vacant cell of its family, in a random local state, and each static
   component in a random local state; compared with the marking sort
   through the cell encoding [Net_statespace.cell_symmetry] documents. *)
let prop_cell_sort_matches_marking_sort =
  let nets =
    Array.init 3 (fun k ->
        lazy
          (let compiled =
             Pepanet.Net_compile.of_string (Scenarios.Roaming.pepanet_family ~tokens:(k + 2))
           in
           (compiled, Pepanet.Net_statespace.cell_symmetry compiled)))
  in
  QCheck2.Test.make ~name:"cell canonicalisation matches the marking sort" ~count:60
    ~print:QCheck2.Print.(pair int int)
    QCheck2.Gen.(pair (2 -- 4) (0 -- 1_000_000))
    (fun (tokens, seed) ->
      let compiled, sym = Lazy.force nets.(tokens - 2) in
      let module C = Pepanet.Net_compile in
      let module M = Pepanet.Marking in
      let groups = Array.map (Array.map (fun replica -> replica.(0))) (Sym.groups sym) in
      let n_cells = C.n_cells compiled and n_statics = compiled.C.n_statics in
      let states cell =
        Array.length
          compiled.C.families.(compiled.C.cell_family.(cell)).C.component.Pepa.Compile.states
      in
      let encode (m : M.t) =
        Array.append
          (Array.mapi
             (fun cell -> function
               | M.Empty -> 0 | M.Tok { token; state } -> 1 + (token * states cell) + state)
             m.M.cells)
          m.M.statics
      in
      let rng = Random.State.make [| seed |] in
      let random_marking () =
        let cells = Array.make n_cells M.Empty in
        Array.iter
          (fun (token : C.token) ->
            let vacant =
              List.filter
                (fun cell -> cells.(cell) = M.Empty && compiled.C.cell_family.(cell) = token.C.token_family)
                (List.init n_cells Fun.id)
            in
            let cell = List.nth vacant (Random.State.int rng (List.length vacant)) in
            cells.(cell) <- M.Tok { token = token.C.token_id; state = Random.State.int rng (states cell) })
          compiled.C.tokens;
        let statics =
          Array.init n_statics (fun s ->
              Random.State.int rng (Array.length compiled.C.static_components.(s).Pepa.Compile.states))
        in
        { M.cells; statics }
      in
      Array.length groups > 0
      && List.for_all
           (fun marking ->
             let expected, expected_changed = reference_net_canonicalise groups marking in
             let vec = encode marking in
             let words, changed = alloc_words (fun () -> Sym.canonicalise sym vec) in
             if words <> 0.0 then QCheck2.Test.fail_reportf "%.0f words allocated" words;
             changed = expected_changed && vec = encode expected)
           (List.init 20 (fun _ -> random_marking ())))

(* ------------------------------------------------------------------ *)
(* Derive                                                              *)
(* ------------------------------------------------------------------ *)

(* The successor generator fills reused move buffers and applies each
   move in place, and the stream takes its integer action ids, so
   derive's minor words per transition are a handful (the list
   semantics it replaced allocated 105-125): the boxed rate passed to
   the stream and the per-state work spread over each state's moves.
   The store's arena, the stream's columns and the generator's tables
   outgrow the minor heap or are allocated once per build. *)
let derive_words_per_transition ~symmetry source =
  with_telemetry_off @@ fun () ->
  let compiled = Pepa.Compile.of_string source in
  ignore (Ss.build ~symmetry compiled);
  let words, space = alloc_words (fun () -> Ss.build ~symmetry compiled) in
  (words /. float_of_int (Ss.n_transitions space), Ss.n_transitions space)

let test_derive_allocates_per_transition () =
  List.iter
    (fun (name, symmetry, source) ->
      let per, transitions = derive_words_per_transition ~symmetry source in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.2f minor words per transition over %d" name per transitions)
        true (per <= 10.0))
    [
      ("tandem12", false, Scenarios.Tandem.source ~stations:3 ~capacity:12);
      ( "roaming.pepa under symmetry",
        true,
        In_channel.with_open_bin (Test_assets.asset "roaming.pepa") In_channel.input_all );
    ]

(* ------------------------------------------------------------------ *)
(* Solver sweeps                                                       *)
(* ------------------------------------------------------------------ *)

(* Every n-vector a solve allocates (the iterate, its scratch and
   residual vectors, BiCGStab's Krylov basis and clamped candidates) is
   over 256 words here, so it goes straight to the major heap; the
   minor heap sees everything else.  A stationary sweep and a residual
   check allocate nothing, a BiCGStab iteration ~24 words for its boxed
   scalars, so a whole solve stays under one word per state, and
   tightening the tolerance from 1e-6 to 1e-12, which more than doubles
   the sweeps, adds under 1,024 words (none at all for Gauss-Seidel,
   SOR and power).  The closure sweeps this replaced allocated 20-120
   words per state per sweep. *)
let test_solves_allocate_linearly () =
  with_telemetry_off @@ fun () ->
  let c =
    Ss.ctmc (Ss.of_string (Scenarios.Tandem.source ~stations:3 ~capacity:12))
  in
  let n = Markov.Ctmc.n_states c in
  ignore (Markov.Ctmc.generator_transposed c);
  List.iter
    (fun method_ ->
      let name = St.method_name method_ in
      let solve tolerance =
        let options = { St.default_options with tolerance } in
        let words, (_, stats) =
          alloc_words (fun () -> St.solve_stats ~method_ ~options c)
        in
        Alcotest.(check string)
          (name ^ " solved by itself")
          name
          (St.method_name stats.St.method_used);
        Alcotest.(check bool)
          (Printf.sprintf "%s to %g: %.0f minor words for %d states" name tolerance words n)
          true
          (words <= float_of_int n);
        (words, stats.St.iterations)
      in
      let loose, loose_sweeps = solve 1e-6 in
      let tight, tight_sweeps = solve 1e-12 in
      Alcotest.(check bool)
        (Printf.sprintf "%s: more sweeps to 1e-12 (%d) than to 1e-6 (%d)" name tight_sweeps
           loose_sweeps)
        true (tight_sweeps > loose_sweeps);
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.0f minor words to 1e-12 against %.0f to 1e-6, within 1,024"
           name tight loose)
        true
        (Float.abs (tight -. loose) <= 1024.0))
    St.[ Gauss_seidel; Sor 1.2; Power; Bicgstab ]

(* ------------------------------------------------------------------ *)
(* Marginals                                                           *)
(* ------------------------------------------------------------------ *)

(* The per-(leaf, label) scan the one-pass table replaced: every state,
   every leaf of the orbit, one label at a time. *)
let reference_probability space pi ~leaf ~label =
  let compiled = Ss.compiled space in
  let orbit = Sym.orbit (Ss.symmetry space) leaf in
  let scale = 1.0 /. float_of_int (Array.length orbit) in
  let total = ref 0.0 in
  for i = 0 to Ss.n_states space - 1 do
    let vec = Ss.state space i in
    let hits = ref 0 in
    Array.iter
      (fun j -> if Pepa.Compile.local_label compiled ~leaf:j ~local:vec.(j) = label then incr hits)
      orbit;
    if !hits > 0 then total := !total +. (pi.(i) *. float_of_int !hits *. scale)
  done;
  !total

let reference_distribution space pi ~leaf =
  let compiled = Ss.compiled space in
  let component =
    compiled.Pepa.Compile.components.(compiled.Pepa.Compile.leaf_component.(leaf))
  in
  Array.to_list component.Pepa.Compile.labels
  |> List.sort_uniq String.compare
  |> List.map (fun label -> (label, reference_probability space pi ~leaf ~label))

let same_bits actual expected =
  List.length actual = List.length expected
  && List.for_all2
       (fun (l1, p1) (l2, p2) ->
         l1 = l2 && Int64.equal (Int64.bits_of_float p1) (Int64.bits_of_float p2))
       actual expected

(* The table, a single leaf's entry and a single probability all agree
   with the scan to the bit, on a random positive weighting of the
   states (the marginals are linear in it), with and without symmetry
   reduction.  Terms whose unreduced space exceeds 4,096 states (27
   unsynchronised replicas) are skipped. *)
let marginals_match source seed =
  List.for_all
    (fun symmetry ->
      match Ss.of_string ~max_states:4096 ~symmetry source with
      | exception
          ( Ss.Too_many_states _ | Ss.Passive_transition _ | Pepa.Env.Semantic_error _
          | Pepa.Compile.Compile_error _ ) ->
          true
      | space ->
          let rng = Random.State.make [| seed |] in
          let pi = Array.init (Ss.n_states space) (fun _ -> Random.State.float rng 1.0) in
          let table = Ss.local_state_distributions space pi in
          let leaves = Array.length table in
          leaves = Pepa.Compile.n_leaves (Ss.compiled space)
          && List.for_all
               (fun leaf ->
                 let expected = reference_distribution space pi ~leaf in
                 same_bits table.(leaf) expected
                 && same_bits (Ss.local_state_distribution space pi ~leaf) expected
                 && List.for_all
                      (fun (label, p) ->
                        Int64.equal
                          (Int64.bits_of_float (Ss.local_state_probability space pi ~leaf ~label))
                          (Int64.bits_of_float p))
                      expected)
               (List.init leaves Fun.id))
    [ false; true ]

let prop_marginals_match_scan =
  QCheck2.Test.make ~name:"one-pass marginals match the scan" ~count:60
    ~print:QCheck2.Print.(pair string int)
    QCheck2.Gen.(pair Test_aggregate.gen_model (0 -- 1_000_000))
    (fun (source, seed) -> marginals_match source seed)

let prop_nested_marginals_match_scan =
  QCheck2.Test.make ~name:"one-pass marginals match the scan, nested replicas" ~count:40
    ~print:QCheck2.Print.(pair string int)
    QCheck2.Gen.(pair gen_structure (0 -- 1_000_000))
    (fun (system, seed) -> marginals_match (structure_model system) seed)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_canonicalise_matches_sort;
    QCheck_alcotest.to_alcotest prop_cell_sort_matches_marking_sort;
    Alcotest.test_case "derive allocates O(1) words per transition" `Quick
      test_derive_allocates_per_transition;
    Alcotest.test_case "solves allocate O(n) words" `Quick test_solves_allocate_linearly;
    QCheck_alcotest.to_alcotest prop_marginals_match_scan;
    QCheck_alcotest.to_alcotest prop_nested_marginals_match_scan;
  ]
