(* The Krylov engine: BiCGStab agreement with the stationary methods
   on the example scenarios (plain and aggregated),
   random irreducible chains against the direct solver, the
   non-convergence and fallback contracts, the CLI method converter,
   and the packed state-key codec and state store behind both
   explorers. *)

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
      && Bytes.equal key (Key.pack codec v)
      &&
      (* Store the key at a non-zero index of the arena and read it back. *)
      let store = Key.store codec in
      let other = Array.map (fun c -> c - 1) cards in
      let first = Key.intern store other in
      let i = Key.intern store v in
      first = 0
      && (i = 1 || (v = other && i = 0))
      && Key.get store i = v
      && Key.get store first = other)

let prop_statekey_injective =
  QCheck2.Test.make ~name:"distinct vectors pack to distinct keys" ~count:500
    QCheck2.Gen.(
      vector_gen >>= fun (cards, v1) ->
      array_size (return (Array.length cards)) (0 -- 1_000_000) >|= fun raw ->
      (cards, v1, Array.mapi (fun i x -> x mod cards.(i)) raw))
    (fun (cards, v1, v2) ->
      let codec = Key.of_cardinalities cards in
      Bytes.equal (Key.pack codec v1) (Key.pack codec v2) = (v1 = v2))

(* Fields up to the codec's 55-bit limit, so a field straddles several
   bytes and the codec's bit buffer runs near full.  The reference sets
   one bit at a time: field [i]'s bit [b] is key bit [offset_i + b],
   little-endian within each byte.  Intern-table probing hashes these
   bytes, so this layout is what keeps [intern_collisions] repeatable. *)
let wide_vector_gen =
  let open QCheck2.Gen in
  list_size (1 -- 12) (oneof [ 1 -- 40; 1 -- (1 lsl 20); 1 -- (1 lsl 55) ]) >>= fun cards ->
  let cards = Array.of_list cards in
  flatten_a (Array.map (fun card -> 0 -- (card - 1)) cards) >|= fun v -> (cards, v)

let reference_pack cards v =
  let widths =
    Array.map
      (fun card ->
        let w = ref 0 in
        while 1 lsl !w < card do
          incr w
        done;
        !w)
      cards
  in
  let key = Bytes.make ((Array.fold_left ( + ) 0 widths + 7) / 8) '\000' in
  let pos = ref 0 in
  Array.iteri
    (fun i x ->
      for b = 0 to widths.(i) - 1 do
        if (x lsr b) land 1 = 1 then begin
          let byte = !pos lsr 3 in
          Bytes.set key byte
            (Char.chr (Char.code (Bytes.get key byte) lor (1 lsl (!pos land 7))))
        end;
        incr pos
      done)
    v;
  key

let prop_statekey_layout =
  QCheck2.Test.make ~name:"packed keys are little-endian bit strings" ~count:500
    wide_vector_gen (fun (cards, v) ->
      let codec = Key.of_cardinalities cards in
      let key = Key.pack codec v in
      Bytes.equal key (reference_pack cards v) && Key.unpack codec key = v)

(* Vectors over up to six fields of up to 40 values: small products
   repeat vectors, large ones outgrow the first arena (1,024 keys) and
   intern table (3,072 entries) several times over. *)
let prop_store_first_occurrence =
  QCheck2.Test.make ~name:"the store numbers vectors by first occurrence" ~count:30
    ~print:QCheck2.Print.(pair (list int) int)
    QCheck2.Gen.(pair (list_size (1 -- 6) (1 -- 40)) (0 -- 1_000_000))
    (fun (cards, seed) ->
      let cards = Array.of_list cards in
      let store = Key.store (Key.of_cardinalities cards) in
      let rng = Random.State.make [| seed |] in
      let first = Hashtbl.create 1024 in
      List.for_all
        (fun _ ->
          let v = Array.map (fun card -> Random.State.int rng card) cards in
          let expected =
            match Hashtbl.find_opt first v with
            | Some i -> i
            | None ->
                let i = Hashtbl.length first in
                Hashtbl.add first v i;
                i
          in
          Key.intern store v = expected && Key.length store = Hashtbl.length first)
        (List.init 6000 Fun.id)
      && Hashtbl.fold (fun v i ok -> ok && Key.get store i = v) first true)

(* A built net space keeps its markings as packed keys only: beyond its
   transition stream it holds the compiled net and a few bytes per
   marking.  The 3-token patrol (32,256 markings) keeps about 0.5 words
   per marking; a decoded marking and a hashed key copy per marking
   kept 15.8. *)
let test_net_space_words () =
  let space = Pepanet.Net_statespace.of_string (Scenarios.Roaming.pepanet_family ~tokens:3) in
  let n = Pepanet.Net_statespace.n_markings space in
  let words =
    Obj.reachable_words (Obj.repr space)
    - Obj.reachable_words (Obj.repr (Pepanet.Net_statespace.lts space))
  in
  Alcotest.(check int) "markings" 32256 n;
  Alcotest.(check bool)
    (Printf.sprintf "%d words beside the stream for %d markings, under 2 each" words n)
    true
    (words < 2 * n)

let test_statekey_validation () =
  Alcotest.check_raises "non-positive cardinality"
    (Invalid_argument "Statekey.of_cardinalities: non-positive cardinality") (fun () ->
      ignore (Key.of_cardinalities [| 2; 0 |]));
  Alcotest.check_raises "field wider than 55 bits"
    (Invalid_argument "Statekey.of_cardinalities: cardinality above 2^55") (fun () ->
      ignore (Key.of_cardinalities [| 2; (1 lsl 55) + 1 |]));
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
    Alcotest.test_case "unreachable tolerance reported honestly" `Quick
      test_unreachable_tolerance;
    Alcotest.test_case "breakdown falls back to a usable solve" `Quick test_breakdown_fallback;
    QCheck_alcotest.to_alcotest prop_agrees_with_direct_on_random_chains;
    Alcotest.test_case "CLI method converter accepts bicgstab" `Quick test_method_conv;
    QCheck_alcotest.to_alcotest prop_statekey_roundtrip;
    QCheck_alcotest.to_alcotest prop_statekey_injective;
    QCheck_alcotest.to_alcotest prop_statekey_layout;
    QCheck_alcotest.to_alcotest prop_store_first_occurrence;
    Alcotest.test_case "net space keeps packed markings only" `Quick test_net_space_words;
    Alcotest.test_case "packed-key validation" `Quick test_statekey_validation;
  ]
