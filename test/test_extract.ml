module A = Uml.Activity
module B = A.Build
module E = Extract.Ad_to_pepanet
module N = Pepanet.Net

let close = Alcotest.float 1e-9

let test_names () =
  Alcotest.(check string) "action mangling" "download_file" (Extract.Names.action_name "download file");
  Alcotest.(check string) "action lowercases" "handover" (Extract.Names.action_name "Handover");
  Alcotest.(check string) "constant mangling" "Transmitter_1" (Extract.Names.constant_name "transmitter 1");
  Alcotest.(check string) "rate name" "r_go_Fast" (Extract.Names.rate_name "Go Fast");
  let alloc = Extract.Names.Allocator.create Extract.Names.action_name in
  let a = Extract.Names.Allocator.get alloc "close" in
  let b = Extract.Names.Allocator.get alloc "close" in
  let c = Extract.Names.Allocator.get alloc "Close" in
  Alcotest.(check string) "stable" a b;
  Alcotest.(check bool) "injective" true (a <> c)

let test_pda_extraction_shape () =
  let ex = Scenarios.Pda.extraction () in
  let net = ex.E.net in
  Alcotest.(check (list string)) "places from locations" [ "Transmitter_1"; "Transmitter_2" ]
    (N.place_names net);
  Alcotest.(check (list string)) "one token type" [ "Tok_ua" ] net.N.token_types;
  let transition_actions =
    List.map (fun (t : N.transition) -> t.N.firing_action) net.N.transitions
  in
  Alcotest.(check (list string)) "move + synthetic return" [ "handover"; "return_ua" ]
    transition_actions;
  let handover = List.hd net.N.transitions in
  Alcotest.(check (list string)) "handover input" [ "Transmitter_1" ] handover.N.inputs;
  Alcotest.(check (list string)) "handover output" [ "Transmitter_2" ] handover.N.outputs;
  (* mapping tables *)
  Alcotest.(check int) "all six activities mapped" 6 (List.length ex.E.action_of_node);
  Alcotest.(check (list (pair string string))) "location map"
    [ ("transmitter_1", "Transmitter_1"); ("transmitter_2", "Transmitter_2") ]
    ex.E.place_of_location

let test_pda_numbers () =
  (* Whole-cycle throughput: 1/(1/2 + 1/10 + 1/5 + 1/0.5 + 1/8 + 1/1). *)
  let ex = Scenarios.Pda.extraction () in
  let analysis = Choreographer.Workbench.analyse_net ~name:"pda" ex.E.net in
  let results = analysis.Choreographer.Workbench.net_results in
  let t name = Option.get (Choreographer.Results.throughput results name) in
  let cycle = (1.0 /. 2.0) +. (1.0 /. 10.0) +. (1.0 /. 5.0) +. (1.0 /. 0.5) +. 0.125 +. 1.0 in
  Alcotest.check close "download throughput" (1.0 /. cycle) (t "download_file");
  Alcotest.check close "handover = download" (t "download_file") (t "handover");
  Alcotest.check close "abort is half of handover" (t "handover" /. 2.0) (t "abort_download");
  Alcotest.check close "continue = abort (50/50)" (t "abort_download") (t "continue_download")

let test_file_protocol_extraction () =
  let ex = Scenarios.File_protocol.extraction () in
  let net = ex.E.net in
  Alcotest.(check (list string)) "single implicit place" [ "Global" ] (N.place_names net);
  Alcotest.(check int) "no net transition (reset is local)" 0 (List.length net.N.transitions);
  (* The two close boxes share one action type. *)
  let actions = List.map snd ex.E.action_of_node |> List.sort_uniq String.compare in
  Alcotest.(check (list string)) "action set"
    [ "close"; "openread"; "openwrite"; "read"; "write" ] actions

let test_choice_probabilities () =
  (* Decision branch rates determine branch probabilities: abort rate 1,
     continue rate 3 gives a 1:3 split. *)
  let rates =
    Uml.Rates_file.of_string
      "abort_download = 1.0\ncontinue_download = 3.0\nhandover = 1.0\ndefault = 1.0"
  in
  let ex = Extract.Ad_to_pepanet.extract ~rates (Scenarios.Pda.diagram ()) in
  let analysis = Choreographer.Workbench.analyse_net ~name:"pda" ex.E.net in
  let results = analysis.Choreographer.Workbench.net_results in
  let t name = Option.get (Choreographer.Results.throughput results name) in
  Alcotest.check close "1:3 branch split" 3.0 (t "continue_download" /. t "abort_download")

let test_static_components () =
  (* An activity with no object flow becomes a static component at the
     last moved-to location, cooperating with the token on shared
     names... here it is independent (no shared activities). *)
  let b = B.create "with_static" in
  let i = B.initial b in
  let act = B.action b "carry" in
  let move = B.action ~move:true b "travel" in
  let beep = B.action b "beep" in
  let fin = B.final b in
  B.edge b i act;
  B.edge b act move;
  B.edge b move beep;
  B.edge b beep fin;
  let o1 = B.occurrence ~loc:"src" b ~obj:"bag" ~cls:"Bag" in
  let o2 = B.occurrence ~state:"moved" ~loc:"dst" b ~obj:"bag" ~cls:"Bag" in
  B.flow_into b ~occ:o1 ~activity:act;
  B.flow_into b ~occ:o1 ~activity:move;
  B.flow_out_of b ~activity:move ~occ:o2;
  let d = B.finish b in
  let ex = Extract.Ad_to_pepanet.extract d in
  let net = ex.E.net in
  (* beep has no object: it becomes a static component at dst (the last
     location moved to). *)
  let dst = List.find (fun (p : N.place) -> p.N.place_name = "Dst") net.N.places in
  Alcotest.(check (list string)) "static at dst" [ "St_dst" ] (N.statics_of_context dst.N.context);
  let src = List.find (fun (p : N.place) -> p.N.place_name = "Src") net.N.places in
  Alcotest.(check (list string)) "no static at src" [] (N.statics_of_context src.N.context);
  (* The net still analyses (static beeps forever at dst). *)
  let analysis = Choreographer.Workbench.analyse_net ~name:"static" ex.E.net in
  let t name =
    Option.value ~default:0.0
      (Choreographer.Results.throughput analysis.Choreographer.Workbench.net_results name)
  in
  Alcotest.(check bool) "beep runs" true (t "beep" > 0.0);
  Alcotest.(check bool) "token cycles" true (t "travel" > 0.0)

let test_cell_cooperation_on_shared_activities () =
  (* Two objects sharing an activity must cooperate in the place. *)
  let b = B.create "shared" in
  let i = B.initial b in
  let sync = B.action b "sync" in
  let fin = B.final b in
  B.edge b i sync;
  B.edge b sync fin;
  let oa = B.occurrence ~loc:"room" b ~obj:"alice" ~cls:"P" in
  let ob = B.occurrence ~loc:"room" b ~obj:"bob" ~cls:"P" in
  B.flow_into b ~occ:oa ~activity:sync;
  B.flow_into b ~occ:ob ~activity:sync;
  let d = B.finish b in
  let ex = Extract.Ad_to_pepanet.extract d in
  let place = List.hd ex.E.net.N.places in
  (match place.N.context with
  | N.Ctx_coop (_, set, _) ->
      Alcotest.(check bool) "cells cooperate on sync" true
        (Pepa.Syntax.String_set.mem "sync" set)
  | _ -> Alcotest.fail "expected a cooperation context");
  (* The shared activity happens simultaneously: equal throughput, one
     event for both. *)
  let analysis = Choreographer.Workbench.analyse_net ~name:"shared" ex.E.net in
  let t name =
    Option.value ~default:0.0
      (Choreographer.Results.throughput analysis.Choreographer.Workbench.net_results name)
  in
  Alcotest.(check bool) "sync happens" true (t "sync" > 0.0)

let test_absorb_mode () =
  let ex = Extract.Ad_to_pepanet.extract ~restart:`Absorb (Scenarios.Pda.diagram ()) in
  let compiled = Pepanet.Net_compile.compile ex.E.net in
  let space = Pepanet.Net_statespace.build compiled in
  Alcotest.(check bool) "terminating diagram deadlocks" true
    (Markov.Lts.deadlocks (Pepanet.Net_statespace.lts space) <> []);
  Alcotest.(check int) "no synthetic transitions" 1 (List.length ex.E.net.N.transitions)

let test_extraction_errors () =
  let reject msg build =
    match Extract.Ad_to_pepanet.extract (build ()) with
    | exception E.Extraction_error _ -> ()
    | _ -> Alcotest.failf "%s: accepted" msg
  in
  (* A <<move>> with no object flow. *)
  reject "move without flow" (fun () ->
      let b = B.create "bad" in
      let i = B.initial b in
      let m = B.action ~move:true b "teleport" in
      let a = B.action b "work" in
      let fin = B.final b in
      B.edge b i m;
      B.edge b m a;
      B.edge b a fin;
      let o = B.occurrence ~loc:"x" b ~obj:"v" ~cls:"V" in
      B.flow_into b ~occ:o ~activity:a;
      B.finish b);
  (* A mobile diagram where an object occurrence has no location. *)
  reject "mobile object without location" (fun () ->
      let b = B.create "bad2" in
      let i = B.initial b in
      let a = B.action b "work" in
      let fin = B.final b in
      B.edge b i a;
      B.edge b a fin;
      let o1 = B.occurrence ~loc:"x" b ~obj:"v" ~cls:"V" in
      let o2 = B.occurrence b ~obj:"w" ~cls:"W" in
      B.flow_into b ~occ:o1 ~activity:a;
      B.flow_into b ~occ:o2 ~activity:a;
      B.finish b);
  (* An object with occurrences but no flows. *)
  reject "object without activities" (fun () ->
      let b = B.create "bad3" in
      let i = B.initial b in
      let a = B.action b "work" in
      let fin = B.final b in
      B.edge b i a;
      B.edge b a fin;
      let o1 = B.occurrence ~loc:"x" b ~obj:"v" ~cls:"V" in
      B.flow_into b ~occ:o1 ~activity:a;
      ignore (B.occurrence ~loc:"x" b ~obj:"ghost" ~cls:"G");
      B.finish b)

let test_fork_join () =
  (* Two objects on separate branches of a fork proceed concurrently;
     the join synchronises control flow. *)
  let build_forked ~same_object =
    let b = B.create "forked" in
    let i = B.initial b in
    let fork = B.fork b in
    let left = B.action b "pack" in
    let right = B.action b "stamp" in
    let join = B.join b in
    let wrap = B.action b "wrap" in
    let fin = B.final b in
    B.edge b i fork;
    B.edge b fork left;
    B.edge b fork right;
    B.edge b left join;
    B.edge b right join;
    B.edge b join wrap;
    B.edge b wrap fin;
    let o1 = B.occurrence ~loc:"desk" b ~obj:"box" ~cls:"Box" in
    let o2 =
      B.occurrence ~loc:"desk" b ~obj:(if same_object then "box" else "label") ~cls:"Label"
    in
    B.flow_into b ~occ:o1 ~activity:left;
    B.flow_into b ~occ:o2 ~activity:right;
    B.flow_into b ~occ:o1 ~activity:wrap;
    B.flow_into b ~occ:o2 ~activity:wrap;
    B.finish b
  in
  let ex = Extract.Ad_to_pepanet.extract (build_forked ~same_object:false) in
  let analysis = Choreographer.Workbench.analyse_net ~name:"forked" ex.E.net in
  let t name =
    Option.value ~default:0.0
      (Choreographer.Results.throughput analysis.Choreographer.Workbench.net_results name)
  in
  Alcotest.(check bool) "both branches run" true (t "pack" > 0.0 && t "stamp" > 0.0);
  Alcotest.(check bool) "wrap synchronises both objects" true (t "wrap" > 0.0);
  (* The same object on both branches is outside the supported subset. *)
  match Extract.Ad_to_pepanet.extract (build_forked ~same_object:true) with
  | exception E.Extraction_error _ -> ()
  | _ -> Alcotest.fail "parallel branches of one object accepted"

let test_static_location_pinning () =
  (* An object-less activity pinned to a location by an atloc tag,
     overriding the walk-based assignment. *)
  let b = B.create "pinned" in
  let i = B.initial b in
  let act = B.action b "carry" in
  let move = B.action ~move:true b "travel" in
  let beep = B.action b "beep" in
  let fin = B.final b in
  B.edge b i act;
  B.edge b act move;
  B.edge b move beep;
  B.edge b beep fin;
  let o1 = B.occurrence ~loc:"src" b ~obj:"bag" ~cls:"Bag" in
  let o2 = B.occurrence ~state:"moved" ~loc:"dst" b ~obj:"bag" ~cls:"Bag" in
  B.flow_into b ~occ:o1 ~activity:act;
  B.flow_into b ~occ:o1 ~activity:move;
  B.flow_out_of b ~activity:move ~occ:o2;
  let d = B.finish b in
  (* The walk would place beep at dst; pin it to src instead. *)
  let beep_id =
    (List.find
       (fun (n : A.node) ->
         match n.A.kind with A.Action { name; _ } -> name = "beep" | _ -> false)
       (A.action_nodes d))
      .A.node_id
  in
  let d = A.annotate d ~node_id:beep_id ~tag:"atloc" ~value:"src" in
  let ex = Extract.Ad_to_pepanet.extract d in
  let src = List.find (fun (p : N.place) -> p.N.place_name = "Src") ex.E.net.N.places in
  Alcotest.(check (list string)) "static pinned to src" [ "St_src" ]
    (N.statics_of_context src.N.context);
  (* pinning to an unknown location is rejected *)
  let bad = A.annotate d ~node_id:beep_id ~tag:"atloc" ~value:"nowhere" in
  match Extract.Ad_to_pepanet.extract bad with
  | exception E.Extraction_error _ -> ()
  | _ -> Alcotest.fail "unknown pinned location accepted"

let test_parametric_transmitters () =
  List.iter
    (fun k ->
      let d = Scenarios.Pda.diagram_with_transmitters k in
      let rates = Scenarios.Pda.rates_for_transmitters k in
      let ex = Extract.Ad_to_pepanet.extract ~rates d in
      Alcotest.(check int) (Printf.sprintf "%d places" k) k
        (List.length ex.E.net.N.places);
      (* k-1 handover moves plus one return transition *)
      Alcotest.(check int) "transitions" k (List.length ex.E.net.N.transitions);
      let analysis = Choreographer.Workbench.analyse_net ~name:"pda_k" ex.E.net in
      let t name =
        Option.get
          (Choreographer.Results.throughput analysis.Choreographer.Workbench.net_results name)
      in
      (* journey rate: k-1 segments of 0.5+0.1+2 then finish 0.25 and
         return 1. *)
      let journey = (float_of_int (k - 1) *. 2.6) +. 0.25 +. 1.0 in
      Alcotest.check close (Printf.sprintf "journey rate (k=%d)" k) (1.0 /. journey)
        (t "finish_download"))
    [ 2; 3; 4 ]

let test_reflection () =
  let ex = Scenarios.Pda.extraction () in
  let analysis = Choreographer.Workbench.analyse_net ~name:"pda" ex.E.net in
  let throughputs = analysis.Choreographer.Workbench.net_results.Choreographer.Results.throughputs in
  let d = Extract.Reflector.reflect_activity ex ~throughputs (Scenarios.Pda.diagram ()) in
  let annotated =
    List.filter
      (fun (n : A.node) ->
        A.annotation d ~node_id:n.A.node_id ~tag:Extract.Reflector.throughput_tag <> None)
      (A.action_nodes d)
  in
  Alcotest.(check int) "every action annotated" 6 (List.length annotated);
  (* value formatting matches the computed number *)
  let handover =
    List.find
      (fun (n : A.node) ->
        match n.A.kind with A.Action { name; _ } -> name = "handover" | _ -> false)
      (A.action_nodes d)
  in
  let value = Option.get (A.annotation d ~node_id:handover.A.node_id ~tag:"throughput") in
  Alcotest.(check string) "formatted with 6 significant digits"
    (Extract.Reflector.format_measure (List.assoc "handover" throughputs))
    value

let suite =
  [
    Alcotest.test_case "identifier mangling" `Quick test_names;
    Alcotest.test_case "PDA extraction shape" `Quick test_pda_extraction_shape;
    Alcotest.test_case "PDA throughput numbers" `Quick test_pda_numbers;
    Alcotest.test_case "immobile diagram (file protocol)" `Quick test_file_protocol_extraction;
    Alcotest.test_case "decision probabilities from rates" `Quick test_choice_probabilities;
    Alcotest.test_case "static components" `Quick test_static_components;
    Alcotest.test_case "cells cooperate on shared activities" `Quick test_cell_cooperation_on_shared_activities;
    Alcotest.test_case "absorb mode" `Quick test_absorb_mode;
    Alcotest.test_case "extraction errors" `Quick test_extraction_errors;
    Alcotest.test_case "fork/join (Section 6 extension)" `Quick test_fork_join;
    Alcotest.test_case "static location pinning (Section 6 extension)" `Quick test_static_location_pinning;
    Alcotest.test_case "parametric transmitter journeys" `Quick test_parametric_transmitters;
    Alcotest.test_case "reflection" `Quick test_reflection;
  ]
