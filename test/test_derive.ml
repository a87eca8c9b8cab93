(* The successor generator against the list-based semantics it
   replaced ([Semantics_reference]), explored by the same
   [Statekey.explore]: on generated models with choice, hiding, passive
   rates, nested cooperation over different sets and replicas, both must
   number the same states, emit the same stream (destination, label and
   rate, bit for bit) and raise the same exception, with and without
   symmetry reduction. *)

module C = Pepa.Compile
module Ss = Pepa.Statespace
module Ref = Semantics_reference

(* Three components of one to three local states, each a choice of one
   or two prefixes over four actions with active or (weighted) passive
   rates, under a system equation nesting cooperation, hiding and
   replication two or three deep. *)
let gen_model =
  let open QCheck2.Gen in
  let rate =
    frequency
      [
        (10, 1 -- 40 >|= fun r -> Printf.sprintf "%.1f" (float_of_int r /. 10.0));
        (1, pure "infty");
        (1, pure "infty[2]");
      ]
  in
  let component name =
    1 -- 3 >>= fun n ->
    let state i = if i = 0 then name else Printf.sprintf "%s%d" name i in
    let prefix = triple (oneofl [ "a"; "b"; "c"; "d" ]) rate (0 -- (n - 1)) in
    list_repeat n (list_size (1 -- 2) prefix) >|= fun bodies ->
    String.concat "\n"
      (List.mapi
         (fun i prefixes ->
           Printf.sprintf "%s = %s;" (state i)
             (String.concat " + "
                (List.map (fun (a, r, t) -> Printf.sprintf "(%s, %s).%s" a r (state t)) prefixes)))
         bodies)
  in
  let set = oneofl [ "<>"; "<a>"; "<b>"; "<a, b>"; "<a, c>"; "<b, c, d>"; "<a, b, c, d>" ] in
  let hidden = oneofl [ "a"; "b"; "a, c" ] in
  let rec term depth =
    let leaf = oneofl [ "P"; "Q"; "R" ] in
    if depth = 0 then leaf
    else
      frequency
        [
          (2, leaf);
          (2, pair (term (depth - 1)) (2 -- 3) >|= fun (t, k) -> Printf.sprintf "(%s)[%d]" t k);
          ( 3,
            triple (term (depth - 1)) set (term (depth - 1)) >|= fun (a, s, b) ->
            Printf.sprintf "(%s) %s (%s)" a s b );
          (1, pair (term (depth - 1)) hidden >|= fun (t, h) -> Printf.sprintf "(%s)/{%s}" t h);
        ]
  in
  triple (component "P") (component "Q") (component "R") >>= fun (p, q, r) ->
  2 -- 3 >>= term >|= fun system -> Printf.sprintf "%s\n%s\n%s\nsystem %s;" p q r system

let max_states = 3_000

(* [Statespace.build]'s exploration with the reference semantics: the
   same codec, symmetry and explorer, each move applied to a copy. *)
let reference_build ~symmetry compiled =
  let codec =
    Pepa.Statekey.of_cardinalities
      (Array.map
         (fun comp -> Array.length compiled.C.components.(comp).C.states)
         compiled.C.leaf_component)
  in
  let symmetry = if symmetry then Pepa.Symmetry.detect compiled else Pepa.Symmetry.trivial in
  let stream = Markov.Lts.builder () in
  let successors vec ~src ~visit =
    let moves =
      try Ref.moves compiled vec
      with Ref.Mixed action -> raise (Ss.Mixed_rates { state = C.state_label compiled vec; action })
    in
    List.iter
      (fun (move : Ref.move) ->
        let rate =
          match move.rate with
          | Pepa.Rate.Active r -> r
          | Pepa.Rate.Passive _ ->
              raise
                (Ss.Passive_transition
                   { state = C.state_label compiled vec; action = Pepa.Action.to_string move.action })
        in
        Markov.Lts.add stream ~src ~dst:(visit (Ref.apply vec move.deltas)) ~rate move.action)
      moves
  in
  Obs.Span.with_ "reference.build" (fun span ->
      Pepa.Statekey.explore codec ~span ~stage:"reference.build" ~noun:"states" ~symmetry
        ~max_states ~full:(Ss.Too_many_states max_states) ~stream
        ~initial:(C.initial_state compiled) successors)

let same_stream (store, lts) space =
  let n = Pepa.Statekey.length store in
  let actual = Ss.lts space in
  let expected = Markov.Lts.columns lts and got = Markov.Lts.columns actual in
  let same_ints a b = Array.length a = Array.length b && Array.for_all2 Int.equal a b in
  n = Ss.n_states space
  && List.for_all (fun i -> Pepa.Statekey.get store i = Ss.state space i) (List.init n Fun.id)
  && Markov.Lts.labels lts = Markov.Lts.labels actual
  && same_ints expected.src got.src && same_ints expected.dst got.dst
  && same_ints expected.label got.label
  && Array.length expected.rate = Array.length got.rate
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       expected.rate got.rate

let outcome f = match f () with value -> Ok value | exception e -> Error e

let agrees source =
  match C.of_string source with
  | exception (Pepa.Env.Semantic_error _ | C.Compile_error _) -> QCheck2.assume_fail ()
  | compiled ->
      List.for_all
        (fun symmetry ->
          let expected = outcome (fun () -> reference_build ~symmetry compiled) in
          match (expected, outcome (fun () -> Ss.build ~max_states ~symmetry compiled)) with
          | Ok expected, Ok space -> same_stream expected space
          | Error e, Error e' ->
              e = e'
              || QCheck2.Test.fail_reportf "reference raised %s, generator %s"
                   (Printexc.to_string e) (Printexc.to_string e')
          | Error e, Ok _ -> QCheck2.Test.fail_reportf "only the reference raised %s" (Printexc.to_string e)
          | Ok _, Error e -> QCheck2.Test.fail_reportf "only the generator raised %s" (Printexc.to_string e))
        [ false; true ]

let prop_generator_matches_reference =
  QCheck2.Test.make ~name:"generator = list semantics, bit for bit" ~count:500
    ~print:(fun s -> s) gen_model agrees

(* Hand-written cases the generator meets rarely: a mixed apparent rate
   (the error names the action and the state), a shared action on
   three sides, and a hidden shared action. *)
let test_cases () =
  List.iter
    (fun source -> Alcotest.(check bool) source true (agrees source))
    [
      "P = (a, 1.0).P + (a, infty).P; Q = (a, 2.0).Q; system P <a> Q;";
      "P = (a, 1.0).P + (b, 2.0).P; Q = (a, infty).Q + (a, infty[3]).Q; R = (a, 3.0).(b, 1.0).R;\n\
       system (P <a> Q) <a, b> (R[2]);";
      "P = (a, 1.0).(b, 2.0).P; Q = (a, 2.0).(c, 1.0).Q; system ((P)/{a}) <a> (Q <> P);";
    ];
  match Ss.of_string "P = (a, 1.0).P + (a, infty).P; Q = (a, 2.0).Q; system P <a> Q;" with
  | exception Ss.Mixed_rates { state; action } ->
      Alcotest.(check (pair string string)) "mixed names" ("(P, Q)", "a") (state, action)
  | _ -> Alcotest.fail "mixed rates accepted"

let suite =
  [
    Alcotest.test_case "hand-written cases" `Quick test_cases;
    QCheck_alcotest.to_alcotest prop_generator_matches_reference;
  ]
