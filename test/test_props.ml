(* Property tests over randomly generated inputs to the paper's core
   mapping: random mobile activity diagrams extract to live, token-
   conserving nets whose chain-shaped segments all run at the same
   throughput; random state diagrams extract to models whose local
   distributions are proper. *)

module B = Uml.Activity.Build

(* A random "journey" diagram: a chain of activities over [n_locs]
   locations, moving at randomly chosen points, optionally ending in a
   decision between two final activities. *)
let gen_journey =
  let open QCheck2.Gen in
  let* n_segments = 2 -- 5 in
  let* n_locs = 1 -- 3 in
  let* move_points = list_repeat n_segments (1 -- max 1 (n_locs - 1) >|= fun k -> k mod 2 = 0) in
  let* with_decision = bool in
  let* rates = list_repeat (n_segments + 4) (float_range 0.5 8.0) in
  return (n_segments, n_locs, move_points, with_decision, rates)

let build_journey (n_segments, n_locs, move_points, with_decision, rates) =
  let b = B.create "journey" in
  let i = B.initial b in
  let fin = B.final b in
  let loc k = Printf.sprintf "loc%d" (min k n_locs) in
  let current_loc = ref 1 in
  let occ = ref (B.occurrence ~loc:(loc 1) b ~obj:"traveller" ~cls:"T") in
  let previous = ref i in
  let rates_book = ref Uml.Rates_file.empty in
  let moves_used = ref 0 in
  List.iteri
    (fun k do_move ->
      let may_move = do_move && !current_loc < n_locs in
      let name = Printf.sprintf "step %d" (k + 1) in
      let act = B.action ~move:may_move b name in
      B.edge b !previous act;
      B.flow_into b ~occ:!occ ~activity:act;
      let rate = List.nth rates k in
      rates_book := Uml.Rates_file.add !rates_book (Extract.Names.action_name name) rate;
      if may_move then begin
        incr current_loc;
        incr moves_used;
        let next_occ =
          B.occurrence ~state:(Printf.sprintf "s%d" k) ~loc:(loc !current_loc) b
            ~obj:"traveller" ~cls:"T"
        in
        B.flow_out_of b ~activity:act ~occ:next_occ;
        occ := next_occ
      end;
      previous := act)
    move_points;
  (if with_decision then begin
     let d = B.decision b in
     B.edge b !previous d;
     let alt name rate =
       let act = B.action b name in
       B.edge b d act;
       B.edge b act fin;
       B.flow_into b ~occ:!occ ~activity:act;
       rates_book := Uml.Rates_file.add !rates_book (Extract.Names.action_name name) rate
     in
     alt "good end" (List.nth rates n_segments);
     alt "bad end" (List.nth rates (n_segments + 1))
   end
   else B.edge b !previous fin);
  let d = B.finish b in
  (d, Uml.Rates_file.add !rates_book "return_traveller" (List.nth rates (n_segments + 2)))

let prop_random_journeys =
  QCheck2.Test.make ~name:"random journey diagrams extract to live nets" ~count:60 gen_journey
    (fun spec ->
      let diagram, rates = build_journey spec in
      let ex = Extract.Ad_to_pepanet.extract ~rates diagram in
      let compiled = Pepanet.Net_compile.compile ex.Extract.Ad_to_pepanet.net in
      let space = Pepanet.Net_statespace.build compiled in
      let pi = Pepanet.Net_statespace.steady_state space in
      (* liveness and conservation *)
      Markov.Lts.deadlocks (Pepanet.Net_statespace.lts space) = []
      && List.for_all
           (fun i -> Pepanet.Marking.token_count (Pepanet.Net_statespace.marking space i) = 1)
           (List.init (Pepanet.Net_statespace.n_markings space) Fun.id)
      (* chain invariant: every step activity has the same throughput *)
      &&
      let steps =
        List.filter
          (fun (name, _) ->
            String.length name >= 5 && String.sub name 0 5 = "step_")
          (Pepanet.Net_measures.throughputs space pi)
      in
      (match steps with
      | [] -> false
      | (_, first) :: rest -> List.for_all (fun (_, v) -> abs_float (v -. first) < 1e-9) rest))

(* Random single statecharts: a ring of states with extra chords. *)
let gen_chart =
  let open QCheck2.Gen in
  let* n = 2 -- 6 in
  let* chords = list_size (0 -- 4) (pair (0 -- (n - 1)) (0 -- (n - 1))) in
  let* rates = list_repeat (n + 4) (float_range 0.5 6.0) in
  return (n, chords, rates)

let build_chart (n, chords, rates) =
  let state k = Printf.sprintf "S%d" k in
  let states = List.init n state in
  let ring =
    List.init n (fun k ->
        (state k, state ((k + 1) mod n), Printf.sprintf "ring%d" k, Some (List.nth rates k)))
  in
  let extra =
    List.mapi
      (fun i (a, b) ->
        (state a, state b, Printf.sprintf "chord%d" i, Some (List.nth rates (i mod (n + 4)))))
      chords
  in
  Uml.Statechart.make ~name:"Rand" ~states ~transitions:(ring @ extra) ()

let prop_random_charts =
  QCheck2.Test.make ~name:"random state diagrams extract to proper distributions" ~count:60
    gen_chart
    (fun spec ->
      let chart = build_chart spec in
      let ex = Extract.Sc_to_pepa.extract [ chart ] in
      let analysis = Choreographer.Workbench.analyse_pepa ex.Extract.Sc_to_pepa.model in
      let probabilities = Choreographer.Workbench.local_probabilities analysis ~leaf:0 in
      let total = List.fold_left (fun acc (_, p) -> acc +. p) 0.0 probabilities in
      let pi_total =
        Array.fold_left ( +. ) 0.0 analysis.Choreographer.Workbench.distribution
      in
      abs_float (total -. 1.0) < 1e-8
      && abs_float (pi_total -. 1.0) < 1e-8
      && List.for_all (fun (_, p) -> p >= -1e-12) probabilities
      (* ring transitions all fire: the ring keeps the chain irreducible *)
      && List.for_all
           (fun (name, v) ->
             if String.length name >= 4 && String.sub name 0 4 = "ring" then v > 0.0 else true)
           analysis.Choreographer.Workbench.results.Choreographer.Results.throughputs)

(* Random rate books never change the structure of the extracted net,
   only its numbers: state counts are rate-independent. *)
let prop_rates_do_not_change_structure =
  let open QCheck2 in
  Test.make ~name:"rates never change the marking-graph structure" ~count:20
    Gen.(list_repeat 7 (float_range 0.1 20.0))
    (fun values ->
      let names = Scenarios.Pda.activity_names @ [ "return_ua" ] in
      let rates =
        List.fold_left2
          (fun acc name v -> Uml.Rates_file.add acc name v)
          Uml.Rates_file.empty names values
      in
      let ex = Extract.Ad_to_pepanet.extract ~rates (Scenarios.Pda.diagram ()) in
      let space =
        Pepanet.Net_statespace.build (Pepanet.Net_compile.compile ex.Extract.Ad_to_pepanet.net)
      in
      Pepanet.Net_statespace.n_markings space = 6
      && Pepanet.Net_statespace.n_transitions space = 7)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_random_journeys;
    QCheck_alcotest.to_alcotest prop_random_charts;
    QCheck_alcotest.to_alcotest prop_rates_do_not_change_structure;
  ]
