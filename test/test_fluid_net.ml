(* The PEPA-net lowering onto the population IR: form shape, rejection
   of nets with no continuous interpretation, measures, and three-way
   agreement (lumped exact vs fluid vs simulation) on the roaming
   family. *)

module P = Choreographer.Pipeline
module R = Choreographer.Results
module W = Choreographer.Workbench

let close ?(eps = 1e-9) a b = Float.abs (a -. b) <= eps

let rel_err ~exact v = Float.abs (v -. exact) /. Float.max 1e-12 (Float.abs exact)

let contains sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* Tests run in _build/default/test under [dune runtest] but in the
   workspace root under [dune exec]; the assets are declared as deps. *)
let asset =
  let candidates =
    [ "../examples/assets/roaming.pepanet"; "examples/assets/roaming.pepanet" ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> "examples/assets/roaming.pepanet"

let integrate nf =
  Fluid.Rk45.integrate
    ~f:(fun ~t:_ ~x ~dx -> Fluid.Net_form.derivative nf x dx)
    ~x0:(Fluid.Net_form.initial nf) ()

(* ------------------------------------------------------------------ *)
(* Form shape                                                          *)
(* ------------------------------------------------------------------ *)

let test_net_form_shape () =
  let nf = Fluid.Net_form.of_file asset in
  (* Three places, each pooling one Agent family block (2 derivatives)
     and one static Monitor block (2 derivatives): 12 coordinates. *)
  Alcotest.(check int) "dimension" 12 (Fluid.Net_form.dim nf);
  Alcotest.(check int) "blocks" 6 (Array.length (Fluid.Net_form.blocks nf));
  Alcotest.(check int) "transfers" 3
    (Fluid.Population.n_transfers (Fluid.Net_form.form nf));
  List.iter
    (fun label -> ignore (Fluid.Net_form.block_index nf ~label))
    [ "Agent@HostA"; "Agent@HostB"; "Agent@HostC"; "Monitor@HostA" ];
  (match Fluid.Net_form.block_index nf ~label:"Agent@Nowhere" with
  | exception Not_found -> ()
  | _ -> Alcotest.fail "unknown block label accepted");
  let names = Fluid.Net_form.action_names nf in
  List.iter
    (fun a ->
      Alcotest.(check bool) (a ^ " is an action") true (List.mem a names))
    [ "probe"; "log"; "hop" ];
  (* Initial mass: two tokens at HostA plus one monitor per place. *)
  let x0 = Fluid.Net_form.initial nf in
  Alcotest.(check bool) "initial mass" true
    (close (Array.fold_left ( +. ) 0.0 x0) 5.0);
  Alcotest.(check bool) "tokens start at HostA" true
    (close (Fluid.Net_form.expected_tokens_at nf x0 ~place:"HostA") 2.0);
  Alcotest.(check bool) "HostB starts empty" true
    (close (Fluid.Net_form.expected_tokens_at nf x0 ~place:"HostB") 0.0)

let test_net_conservation () =
  (* Local moves conserve each block's mass; transfers only move token
     mass between places: the total derivative is identically zero. *)
  let nf = Fluid.Net_form.of_file asset in
  let dim = Fluid.Net_form.dim nf in
  let x = Array.init dim (fun i -> float_of_int ((i mod 3) + 1) *. 0.37) in
  let dx = Array.make dim 0.0 in
  Fluid.Net_form.derivative nf x dx;
  Alcotest.(check bool) "total mass conserved" true
    (close ~eps:1e-12 (Array.fold_left ( +. ) 0.0 dx) 0.0);
  (* Static blocks never exchange mass with other blocks: each
     monitor's block sums to zero on its own. *)
  Array.iter
    (fun blk ->
      if contains "Monitor" blk.Fluid.Population.b_label then begin
        let s = ref 0.0 in
        for i = 0 to blk.Fluid.Population.b_n_local - 1 do
          s := !s +. dx.(blk.Fluid.Population.b_offset + i)
        done;
        Alcotest.(check bool)
          (blk.Fluid.Population.b_label ^ " conserved")
          true
          (close ~eps:1e-12 !s 0.0)
      end)
    (Fluid.Net_form.blocks nf)

(* ------------------------------------------------------------------ *)
(* Rejection                                                           *)
(* ------------------------------------------------------------------ *)

let expect_unsupported name thunk =
  match thunk () with
  | _ -> Alcotest.fail (name ^ ": expected Unsupported")
  | exception Fluid.Net_form.Unsupported _ -> ()

let test_net_rejects () =
  (* A passive firing rate has no continuous flow. *)
  expect_unsupported "passive transition rate" (fun () ->
      Fluid.Net_form.of_string
        {|
          Agent = (go, 1.0).Agent;
          token Agent;
          place A = Agent[Agent];
          place B = Agent[_];
          trans t = (go, infty) from A to B;
        |});
  (* A passive local activity is rejected just as in plain PEPA. *)
  expect_unsupported "passive local rate" (fun () ->
      Fluid.Net_form.of_string
        {|
          Agent = (work, infty).(go, 1.0).Agent;
          token Agent;
          place A = Agent[Agent];
          place B = Agent[_];
          trans t = (go, 1.0) from A to B;
        |});
  (* Mixed priorities mean preemption, which has no fluid limit. *)
  expect_unsupported "mixed priorities" (fun () ->
      Fluid.Net_form.of_string
        {|
          Agent = (go, 1.0).(back, 1.0).Agent;
          token Agent;
          place A = Agent[Agent];
          place B = Agent[_];
          trans t = (go, 1.0) from A to B;
          trans u = (back, 1.0) from B to A priority 2;
        |})

(* ------------------------------------------------------------------ *)
(* The scaled roaming family and its lumped exact chain               *)
(* ------------------------------------------------------------------ *)

let test_family_matches_asset () =
  (* At two tokens the generated family instance coincides with the
     checked-in asset: same exact hop throughput. *)
  let space_asset = Pepanet.Net_statespace.of_file asset in
  let pi_asset = Pepanet.Net_statespace.steady_state space_asset in
  let hop_asset = Pepanet.Net_measures.throughput space_asset pi_asset "hop" in
  let space_fam =
    Pepanet.Net_statespace.of_string (Scenarios.Roaming.pepanet_family ~tokens:2)
  in
  let pi_fam = Pepanet.Net_statespace.steady_state space_fam in
  let hop_fam = Pepanet.Net_measures.throughput space_fam pi_fam "hop" in
  Alcotest.(check bool)
    (Printf.sprintf "asset %.8f = family %.8f" hop_asset hop_fam)
    true
    (close ~eps:1e-9 hop_asset hop_fam)

let test_lumped_family_agrees_with_marking_graph () =
  (* The hand-lumped population chain must reproduce the full marking
     graph exactly where the graph is still tractable. *)
  List.iter
    (fun n ->
      let space =
        Pepanet.Net_statespace.of_string (Scenarios.Roaming.pepanet_family ~tokens:n)
      in
      let pi = Pepanet.Net_statespace.steady_state space in
      let hop_mg = Pepanet.Net_measures.throughput space pi "hop" in
      let probe_mg = Pepanet.Net_measures.throughput space pi "probe" in
      let lf = Scenarios.Roaming.lumped_family ~tokens:n in
      let pil = Markov.Steady.solve lf.Scenarios.Roaming.lumped_ctmc in
      let hop_l = lf.Scenarios.Roaming.lumped_hop_throughput pil in
      let probe_l = lf.Scenarios.Roaming.lumped_probe_throughput pil in
      Alcotest.(check bool)
        (Printf.sprintf "hop at n=%d: %.10f vs %.10f" n hop_mg hop_l)
        true
        (close ~eps:1e-8 hop_mg hop_l);
      Alcotest.(check bool)
        (Printf.sprintf "probe at n=%d: %.10f vs %.10f" n probe_mg probe_l)
        true
        (close ~eps:1e-8 probe_mg probe_l))
    [ 2; 3 ]

let test_three_way_family () =
  (* Lumped exact solve, fluid net approximation, and Monte-Carlo
     simulation of the lumped chain agree on the hop throughput at 16
     tokens per family: the fluid error is under 5% and the simulation
     confidence interval brackets both values. *)
  let n = 16 in
  let lf = Scenarios.Roaming.lumped_family ~tokens:n in
  let pil = Markov.Steady.solve lf.Scenarios.Roaming.lumped_ctmc in
  let exact = lf.Scenarios.Roaming.lumped_hop_throughput pil in
  let nf = Fluid.Net_form.of_string (Scenarios.Roaming.pepanet_family ~tokens:n) in
  let x, stats = integrate nf in
  Alcotest.(check bool) "reached steady" true stats.Fluid.Rk45.reached_steady;
  let fluid = Fluid.Net_form.throughput nf x "hop" in
  Alcotest.(check bool)
    (Printf.sprintf "fluid %.4f within 5%% of exact %.4f" fluid exact)
    true
    (rel_err ~exact fluid < 0.05);
  (* The net-level firing flux and the action throughput agree: hop
     only occurs as a firing. *)
  Alcotest.(check bool) "hop throughput is firing flux" true
    (close ~eps:1e-9
       (Fluid.Net_form.firing_throughput nf x "hop_ab"
       +. Fluid.Net_form.firing_throughput nf x "hop_bc"
       +. Fluid.Net_form.firing_throughput nf x "hop_ca")
       fluid);
  let rng = Markov.Simulate.Rng.create ~seed:20260806L in
  let estimate =
    Markov.Simulate.throughput_estimate lf.Scenarios.Roaming.lumped_ctmc ~rng
      ~initial:lf.Scenarios.Roaming.lumped_initial ~batches:24 ~batch_time:8.0
      ~warmup:4.0
      ~counts:(fun src dst -> lf.Scenarios.Roaming.lumped_hop_jump ~src ~dst)
      ()
  in
  let lo = estimate.Markov.Simulate.mean -. estimate.Markov.Simulate.half_width in
  let hi = estimate.Markov.Simulate.mean +. estimate.Markov.Simulate.half_width in
  Alcotest.(check bool)
    (Printf.sprintf "CI [%.4f, %.4f] brackets exact %.4f" lo hi exact)
    true
    (lo <= exact && exact <= hi);
  Alcotest.(check bool)
    (Printf.sprintf "CI [%.4f, %.4f] brackets fluid %.4f" lo hi fluid)
    true
    (lo <= fluid && fluid <= hi)

(* ------------------------------------------------------------------ *)
(* Measures and re-parameterisation                                    *)
(* ------------------------------------------------------------------ *)

let test_net_measures () =
  let nf = Fluid.Net_form.of_file asset in
  let x, _ = integrate nf in
  (* The ring is symmetric at steady state: tokens spread evenly. *)
  List.iter
    (fun place ->
      Alcotest.(check bool)
        (Printf.sprintf "%s holds a third of the tokens" place)
        true
        (close ~eps:1e-3 (Fluid.Net_form.expected_tokens_at nf x ~place) (2.0 /. 3.0)))
    [ "HostA"; "HostB"; "HostC" ];
  let locations = Fluid.Net_form.token_location_proportions nf x ~family:"Agent" in
  Alcotest.(check int) "three locations" 3 (List.length locations);
  Alcotest.(check bool) "location proportions sum to 1" true
    (close ~eps:1e-9 (List.fold_left (fun acc (_, p) -> acc +. p) 0.0 locations) 1.0);
  (match Fluid.Net_form.token_location_proportions nf x ~family:"Ghost" with
  | exception Not_found -> ()
  | _ -> Alcotest.fail "unknown family accepted");
  (* Per-block conditional distributions each sum to one. *)
  let by_block = Hashtbl.create 8 in
  List.iter
    (fun (label, p) ->
      let block = List.hd (String.split_on_char '.' label) in
      Hashtbl.replace by_block block
        (p +. Option.value ~default:0.0 (Hashtbl.find_opt by_block block)))
    (Fluid.Net_form.proportions nf x);
  Hashtbl.iter
    (fun block total ->
      Alcotest.(check bool) (block ^ " proportions sum to 1") true
        (close ~eps:1e-9 total 1.0))
    by_block

let test_net_with_count () =
  let nf = Fluid.Net_form.of_string (Scenarios.Roaming.pepanet_family ~tokens:4) in
  let block = Fluid.Net_form.block_index nf ~label:"Agent@HostA" in
  let scaled = Fluid.Net_form.with_count nf ~block ~count:12.0 in
  Alcotest.(check int) "dimension unchanged" (Fluid.Net_form.dim nf)
    (Fluid.Net_form.dim scaled);
  let mass x0 = Array.fold_left ( +. ) 0.0 x0 in
  Alcotest.(check bool) "mass re-parameterised" true
    (close
       (mass (Fluid.Net_form.initial scaled))
       (mass (Fluid.Net_form.initial nf) +. 8.0))

(* ------------------------------------------------------------------ *)
(* Workbench and pipeline wiring                                       *)
(* ------------------------------------------------------------------ *)

let test_workbench_net_fluid () =
  let analysis =
    W.analyse_net_fluid ~name:"roaming"
      (W.parse_net ~name:"roaming" Scenarios.Roaming.pepanet_source)
  in
  let results = analysis.W.net_fluid_results in
  Alcotest.(check (option string)) "labelled fluid" (Some "fluid")
    results.R.approximation;
  Alcotest.(check bool) "net kind" true (results.R.kind = R.Pepa_net);
  Alcotest.(check bool) "no fallback warning" true
    (not (List.exists (contains "solved exactly") results.R.warnings));
  Alcotest.(check bool) "hop throughput reported" true
    (Option.is_some (R.throughput results "hop"));
  (* Unsupported nets surface as Analysis_error, the signal the
     pipeline's fallback listens for. *)
  match
    W.analyse_net_fluid ~name:"bad" @@ W.parse_net ~name:"bad"
      {|
        Agent = (go, 1.0).Agent;
        token Agent;
        place A = Agent[Agent];
        place B = Agent[_];
        trans t = (go, infty) from A to B;
      |}
  with
  | _ -> Alcotest.fail "expected Analysis_error"
  | exception W.Analysis_error msg ->
      Alcotest.(check bool) "message names the reason" true
        (contains "fluid" msg)

let test_pipeline_net_fluid () =
  (* An activity diagram extracts to a PEPA net; with --fluid the
     pipeline now solves the net fluidly instead of falling back. *)
  let options =
    {
      P.default_options with
      P.rates = Scenarios.Pda.rates;
      P.fluid = Some Fluid.Rk45.default_tolerances;
    }
  in
  let outcome = P.process_document ~options (Scenarios.Pda.poseidon_project ()) in
  let results = List.hd outcome.P.results in
  Alcotest.(check (option string)) "net solved fluidly" (Some "fluid")
    results.R.approximation;
  Alcotest.(check bool) "no fallback warning" true
    (not (List.exists (contains "solved exactly") results.R.warnings));
  Alcotest.(check bool) "reflected XMI labels the method" true
    (contains "fluid approximation"
       (Xml_kit.Minixml.to_string outcome.P.reflected))

let suite =
  [
    Alcotest.test_case "net form shape" `Quick test_net_form_shape;
    Alcotest.test_case "token-mass conservation" `Quick test_net_conservation;
    Alcotest.test_case "unsupported nets rejected" `Quick test_net_rejects;
    Alcotest.test_case "family coincides with asset at n=2" `Quick
      test_family_matches_asset;
    Alcotest.test_case "lumped chain matches marking graph" `Quick
      test_lumped_family_agrees_with_marking_graph;
    Alcotest.test_case "three-way roaming family agreement" `Slow
      test_three_way_family;
    Alcotest.test_case "net measures" `Quick test_net_measures;
    Alcotest.test_case "with_count re-parameterisation" `Quick test_net_with_count;
    Alcotest.test_case "workbench net fluid analysis" `Quick
      test_workbench_net_fluid;
    Alcotest.test_case "pipeline solves nets fluidly" `Quick
      test_pipeline_net_fluid;
  ]
