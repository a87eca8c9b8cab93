(* The fluid-flow engine: numerical vector form derivation, RK45
   integration, and agreement with the exact and simulated solutions. *)

let close ?(eps = 1e-9) a b = Float.abs (a -. b) <= eps

let rel_err ~exact v = Float.abs (v -. exact) /. Float.max 1e-12 (Float.abs exact)

(* A replicated processor pool cooperating with a replicated server
   pool, all rates active: the regime the approximation targets. *)
let pool_model n m =
  Printf.sprintf
    {|
      Proc = (task, 1.0).(swap, 2.0).Proc;
      Srv = (task, 2.0).(log, 5.0).Srv;
      system (Proc[%d]) <task> (Srv[%d]);
    |}
    n m

(* ------------------------------------------------------------------ *)
(* RK45                                                                *)
(* ------------------------------------------------------------------ *)

let test_rk45_relaxation () =
  (* x' = -(x - 1): steady state 1 from any start. *)
  let f ~t:_ ~x ~dx = dx.(0) <- -.(x.(0) -. 1.0) in
  let x, stats = Fluid.Rk45.integrate ~f ~x0:[| 5.0 |] () in
  Alcotest.(check bool) "reached steady" true stats.Fluid.Rk45.reached_steady;
  Alcotest.(check bool) "relaxed to 1" true (close ~eps:1e-4 x.(0) 1.0);
  Alcotest.(check bool) "took steps" true (stats.Fluid.Rk45.steps > 0)

let test_rk45_kinetics () =
  (* a <-> b with rates 3 and 1: mass 4 splits 1:3 at equilibrium. *)
  let f ~t:_ ~x ~dx =
    let flow = (3.0 *. x.(0)) -. (1.0 *. x.(1)) in
    dx.(0) <- -.flow;
    dx.(1) <- flow
  in
  let x, _ = Fluid.Rk45.integrate ~f ~x0:[| 4.0; 0.0 |] () in
  Alcotest.(check bool) "a" true (close ~eps:1e-4 x.(0) 1.0);
  Alcotest.(check bool) "b" true (close ~eps:1e-4 x.(1) 3.0)

let test_rk45_accuracy () =
  (* Integrate x' = -x down to the steady tolerance and compare the
     trajectory against e^{-t} at the reached time. *)
  let f ~t:_ ~x ~dx = dx.(0) <- -.x.(0) in
  let x, stats =
    Fluid.Rk45.integrate
      ~tolerances:{ Fluid.Rk45.rtol = 1e-10; atol = 1e-12 }
      ~steady_tol:1e-6 ~f ~x0:[| 1.0 |] ()
  in
  let expected = Float.exp (-.stats.Fluid.Rk45.t_end) in
  Alcotest.(check bool) "matches e^-t" true (close ~eps:1e-8 x.(0) expected)

let test_rk45_divergence () =
  (* x' = 1 never settles: the horizon must be reported, not looped
     forever. *)
  let f ~t:_ ~x:_ ~dx = dx.(0) <- 1.0 in
  match Fluid.Rk45.integrate ~t_max:10.0 ~f ~x0:[| 0.0 |] () with
  | _ -> Alcotest.fail "expected Did_not_reach_steady"
  | exception Fluid.Rk45.Did_not_reach_steady { t; _ } ->
      Alcotest.(check bool) "stopped at the horizon" true (t >= 10.0)

(* The 16-processor pool starts with derivative norm 8 against a
   population norm of 16.  A steady threshold scaled only by rtol
   reached that ratio at rtol 1e-3, and the run stopped at t = 0 with
   task throughput 8; at every tolerance the run must move and land
   near the fluid fixed point, 40/7.  A loose atol made the controller
   oscillate around the fixed point until the 2M-step budget ran out;
   with error control at most at the steady threshold (1e-3 at these
   rtols) every pair lands within that threshold of 40/7. *)
let test_rk45_loose_tolerances () =
  let form = Fluid.Vector_form.of_string (pool_model 16 4) in
  let f ~t:_ ~x ~dx = Fluid.Vector_form.derivative form x dx in
  let check ~within (tolerances : Fluid.Rk45.tolerances) =
    let x, stats = Fluid.Rk45.integrate ~tolerances ~f ~x0:(Fluid.Vector_form.initial form) () in
    let what = Printf.sprintf "rtol %g atol %g" tolerances.rtol tolerances.atol in
    Alcotest.(check bool) (what ^ ": steps taken") true (stats.Fluid.Rk45.steps > 0);
    Alcotest.(check bool) (what ^ ": reached steady") true stats.Fluid.Rk45.reached_steady;
    let task = Fluid.Vector_form.throughput form x "task" in
    Alcotest.(check bool)
      (Printf.sprintf "%s: task throughput %.6f near 40/7" what task)
      true
      (rel_err ~exact:(40.0 /. 7.0) task < within)
  in
  List.iter
    (fun rtol -> check ~within:1e-4 { Fluid.Rk45.default_tolerances with Fluid.Rk45.rtol })
    [ 1e-1; 1e-2; 3e-3; 1e-3; 1e-4; 1e-6; 1e-8 ];
  List.iter
    (fun atol ->
      List.iter
        (fun rtol -> check ~within:1e-3 { Fluid.Rk45.rtol; atol })
        [ 1e-1; 1e-3; 1e-4; 1e-6; 1e-8 ])
    [ 1e-6; 1e-4; 1e-3; 1e-2; 1.0 ]

(* ------------------------------------------------------------------ *)
(* Vector form                                                         *)
(* ------------------------------------------------------------------ *)

let test_vector_form_shape () =
  let form = Fluid.Vector_form.of_string (pool_model 5 2) in
  let pops = Fluid.Vector_form.pops form in
  Alcotest.(check int) "two populations" 2 (Array.length pops);
  Alcotest.(check int) "dimension independent of counts" 4 (Fluid.Vector_form.dim form);
  let counts =
    Array.to_list pops
    |> List.map (fun p -> (p.Fluid.Vector_form.label, p.Fluid.Vector_form.count))
    |> List.sort compare
  in
  Alcotest.(check (list (pair string (float 0.0))))
    "replica counts" [ ("Proc", 5.0); ("Srv", 2.0) ] counts;
  let x0 = Fluid.Vector_form.initial form in
  Alcotest.(check (float 0.0)) "mass conserved" 7.0 (Array.fold_left ( +. ) 0.0 x0);
  Alcotest.(check (list string))
    "visible actions" [ "log"; "swap"; "task" ]
    (Fluid.Vector_form.action_names form)

let test_vector_form_rejects_passive () =
  let model =
    {|
      Proc = (task, 1.0).Proc;
      Srv = (task, infty).Srv;
      system Proc <task> Srv;
    |}
  in
  match Fluid.Vector_form.of_string model with
  | _ -> Alcotest.fail "expected Unsupported"
  | exception Fluid.Vector_form.Unsupported msg ->
      let contains sub s =
        let n = String.length sub and m = String.length s in
        let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "names the action" true (contains "task" msg)

let integrate_form ?steady_tol form =
  let f ~t:_ ~x ~dx = Fluid.Vector_form.derivative form x dx in
  Fluid.Rk45.integrate ?steady_tol ~f ~x0:(Fluid.Vector_form.initial form) ()

let test_fluid_conservation () =
  let form = Fluid.Vector_form.of_string (pool_model 16 4) in
  let x, stats = integrate_form form in
  Alcotest.(check bool) "steady" true stats.Fluid.Rk45.reached_steady;
  (* Replicas move between local states but never leave their
     population. *)
  Array.iter
    (fun p ->
      let total = ref 0.0 in
      for s = 0 to p.Fluid.Vector_form.n_local - 1 do
        total := !total +. x.(p.Fluid.Vector_form.offset + s)
      done;
      Alcotest.(check bool)
        (Printf.sprintf "population %s conserved" p.Fluid.Vector_form.label)
        true
        (close ~eps:1e-6 !total p.Fluid.Vector_form.count))
    (Fluid.Vector_form.pops form)

let test_fluid_bounded_capacity () =
  (* The server pool bounds the flux: throughput can never exceed
     either side's capacity. *)
  let form = Fluid.Vector_form.of_string (pool_model 16 4) in
  let x, _ = integrate_form form in
  let task = Fluid.Vector_form.throughput form x "task" in
  Alcotest.(check bool) "positive flow" true (task > 0.1);
  Alcotest.(check bool) "below server capacity" true (task <= 4.0 *. 2.0 +. 1e-6);
  Alcotest.(check bool) "below processor capacity" true (task <= 16.0 *. 1.0 +. 1e-6)

let test_fluid_vs_exact_16 () =
  (* The acceptance gate's twin: at 16 replicas the fluid throughput is
     within 5% of the exact (aggregated) solve. *)
  let source = pool_model 16 4 in
  let space = Pepa.Statespace.of_string ~symmetry:true source in
  let pi = Pepa.Statespace.steady_state ~lump:true space in
  let form = Fluid.Vector_form.of_string source in
  let x, _ = integrate_form form in
  List.iter
    (fun (name, exact) ->
      let fluid = Fluid.Vector_form.throughput form x name in
      let err = rel_err ~exact fluid in
      if err > 0.05 then
        Alcotest.failf "throughput(%s): fluid %.6f vs exact %.6f (%.1f%% off)" name fluid
          exact (100.0 *. err))
    (Pepa.Statespace.throughputs space pi)

let test_fluid_hiding () =
  (* Hidden actions keep flowing internally but disappear from the
     visible measures. *)
  let source =
    {|
      Proc = (task, 1.0).(swap, 2.0).Proc;
      Srv = (task, 2.0).(log, 5.0).Srv;
      system ((Proc[4]) <task> (Srv[2])) / {task};
    |}
  in
  let form = Fluid.Vector_form.of_string source in
  Alcotest.(check (list string))
    "task is hidden" [ "log"; "swap" ]
    (Fluid.Vector_form.action_names form);
  let x, _ = integrate_form form in
  Alcotest.(check (float 0.0)) "hidden throughput reads 0" 0.0
    (Fluid.Vector_form.throughput form x "task");
  (* The internal task flow still drives the log cycle. *)
  Alcotest.(check bool) "log still flows" true
    (Fluid.Vector_form.throughput form x "log" > 0.1)

let test_with_count_scaling () =
  (* Re-parameterising the population does not change the ODE size, and
     the saturated throughput scales with the server pool, not the
     clients. *)
  let form = Fluid.Vector_form.of_string (pool_model 16 4) in
  let proc =
    let found = ref (-1) in
    Array.iteri
      (fun i p -> if p.Fluid.Vector_form.label = "Proc" then found := i)
      (Fluid.Vector_form.pops form);
    !found
  in
  let big = Fluid.Vector_form.with_count form ~pop:proc ~count:100000.0 in
  Alcotest.(check int) "same dimension" (Fluid.Vector_form.dim form)
    (Fluid.Vector_form.dim big);
  let x, stats = integrate_form big in
  Alcotest.(check bool) "steady at 1e5 replicas" true stats.Fluid.Rk45.reached_steady;
  let task = Fluid.Vector_form.throughput big x "task" in
  (* Servers saturate: flow pinned near the server pool's cycle
     capacity 2*4*5/(2+5). *)
  Alcotest.(check bool) "server-bound flow" true (rel_err ~exact:(40.0 /. 7.0) task < 0.01)

let test_leaf_proportions () =
  let form = Fluid.Vector_form.of_string (pool_model 8 2) in
  let x, _ = integrate_form form in
  (* Every leaf of the Proc group shares the population marginal. *)
  let p0 = Fluid.Vector_form.leaf_proportions form x ~leaf:0 in
  let p1 = Fluid.Vector_form.leaf_proportions form x ~leaf:1 in
  Alcotest.(check bool) "orbit leaves share the marginal" true (p0 = p1);
  let total = List.fold_left (fun acc (_, v) -> acc +. v) 0.0 p0 in
  Alcotest.(check bool) "marginal sums to 1" true (close ~eps:1e-6 total 1.0)

(* ------------------------------------------------------------------ *)
(* Workbench, pipeline and interchange integration                     *)
(* ------------------------------------------------------------------ *)

module W = Choreographer.Workbench
module R = Choreographer.Results
module P = Choreographer.Pipeline

let test_workbench_fluid () =
  let analysis = W.analyse_pepa_fluid ~name:"pool" (W.parse_pepa ~name:"pool" (pool_model 16 4)) in
  let results = analysis.W.fluid_results in
  Alcotest.(check string) "named" "pool" results.R.source;
  Alcotest.(check (option string)) "labelled as fluid" (Some "fluid") results.R.approximation;
  Alcotest.(check int) "n_states is the ODE dimension" 4 results.R.n_states;
  (match R.throughput results "task" with
  | Some v -> Alcotest.(check bool) "task throughput present" true (v > 0.1)
  | None -> Alcotest.fail "no task throughput");
  (* Local-state proportions mirror the population marginals. *)
  let probs = W.fluid_local_probabilities analysis ~leaf:0 in
  let total = List.fold_left (fun acc (_, v) -> acc +. v) 0.0 probs in
  Alcotest.(check bool) "leaf marginal sums to 1" true (close ~eps:1e-6 total 1.0);
  (* Passive models are wrapped into Analysis_error, not a raw
     Unsupported escape. *)
  match
    W.analyse_pepa_fluid
      (W.parse_pepa ~name:"model" "P = (a, 1.0).P; Q = (a, infty).Q; system P <a> Q;")
  with
  | _ -> Alcotest.fail "expected Analysis_error"
  | exception W.Analysis_error _ -> ()

let test_results_approximation_roundtrip () =
  let results =
    R.make ~source:"m" ~kind:R.Pepa_model ~n_states:4 ~n_transitions:6
      ~throughputs:[ ("task", 5.714286) ]
      ~state_probabilities:[ ("Proc.Proc", 0.4) ]
      ~approximation:"fluid" ()
  in
  let back = R.of_xmltable (R.to_xmltable results) in
  Alcotest.(check (option string)) "approximation survives the xmltable round trip"
    (Some "fluid") back.R.approximation;
  (* And its absence survives too. *)
  let exact = R.make ~source:"m" ~kind:R.Pepa_model ~n_states:4 ~n_transitions:6 () in
  let back = R.of_xmltable (R.to_xmltable exact) in
  Alcotest.(check (option string)) "exact stays unlabelled" None back.R.approximation

let test_pipeline_fluid () =
  let contains sub s =
    let n = String.length sub and m = String.length s in
    let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  let fluid_options =
    { P.default_options with P.fluid = Some Fluid.Rk45.default_tolerances }
  in
  (* A single all-active chart has a fluid interpretation: results are
     labelled and reflected with the solution-method annotation. *)
  let doc = Uml.Xmi_write.statecharts_to_xml [ Scenarios.Tomcat.client () ] in
  let outcome = P.process_document ~options:fluid_options doc in
  let results = List.hd outcome.P.results in
  Alcotest.(check (option string)) "fluid label" (Some "fluid") results.R.approximation;
  let probs_total =
    List.fold_left (fun acc (_, p) -> acc +. p) 0.0 results.R.state_probabilities
  in
  Alcotest.(check bool) "leaf probabilities reflected" true
    (close ~eps:1e-6 probs_total 1.0);
  let annotated =
    contains "fluid approximation" (Xml_kit.Minixml.to_string outcome.P.reflected)
  in
  Alcotest.(check bool) "reflected XMI labels the method" true annotated;
  (* Cooperating charts extract shared actions as passive: no fluid
     interpretation, so the pipeline falls back to the exact solve and
     says so. *)
  let doc =
    Uml.Xmi_write.statecharts_to_xml
      [ Scenarios.Tomcat.client (); Scenarios.Tomcat.server_jsp () ]
  in
  let outcome = P.process_document ~options:fluid_options doc in
  let results = List.hd outcome.P.results in
  Alcotest.(check (option string)) "fell back to exact" None results.R.approximation;
  Alcotest.(check bool) "warning explains the fallback" true
    (List.exists (contains "solved exactly") results.R.warnings)

(* ------------------------------------------------------------------ *)
(* Bit-identity of the lowering onto the population IR                 *)
(* ------------------------------------------------------------------ *)

(* Goldens captured from the pre-refactor vector form (before the
   {!Fluid.Population} IR split): derivative evaluations, RK45 steady
   points with their step counts, and throughputs, as IEEE-754 bit
   patterns.  The lowering must reproduce every float-operation order
   exactly, so these are checked bit for bit — any reordering of the
   flux arithmetic shows up here even when the values agree to 1e-15. *)
let test_bit_identity () =
  let hiding_model =
    {|
      Proc = (task, 1.0).(swap, 2.0).Proc;
      Srv = (task, 2.0).(log, 5.0).Srv;
      system ((Proc[4]) <task> (Srv[2])) / {task};
    |}
  in
  let check_bits label expected actual =
    Array.iteri
      (fun i bits ->
        Alcotest.(check int64)
          (Printf.sprintf "%s[%d]" label i)
          bits
          (Int64.bits_of_float actual.(i)))
      expected
  in
  let run name source ~ddt0 ~ddtp ~steps ~steady ~thr =
    let form = Fluid.Vector_form.of_string source in
    let dim = Fluid.Vector_form.dim form in
    Alcotest.(check int) (name ^ " dim") (Array.length ddt0) dim;
    let dx = Array.make dim 0.0 in
    Fluid.Vector_form.derivative form (Fluid.Vector_form.initial form) dx;
    check_bits (name ^ " d/dt at x0") ddt0 dx;
    let xp = Array.init dim (fun i -> float_of_int (((i * 7) mod 5) + 1) *. 0.61) in
    Fluid.Vector_form.derivative form xp dx;
    check_bits (name ^ " d/dt at probe") ddtp dx;
    let f ~t:_ ~x ~dx = Fluid.Vector_form.derivative form x dx in
    let x, stats = Fluid.Rk45.integrate ~f ~x0:(Fluid.Vector_form.initial form) () in
    Alcotest.(check int) (name ^ " step count") steps stats.Fluid.Rk45.steps;
    check_bits (name ^ " steady point") steady x;
    List.iter
      (fun (action, bits) ->
        Alcotest.(check int64)
          (Printf.sprintf "%s throughput %s" name action)
          bits
          (Int64.bits_of_float (Fluid.Vector_form.throughput form x action)))
      thr
  in
  run "pool16x4" (pool_model 16 4)
    ~ddt0:
      [| 0xc020000000000000L; 0x4020000000000000L; 0xc020000000000000L;
         0x4020000000000000L |]
    ~ddtp:
      [| 0x401fb851eb851eb9L; 0xc01fb851eb851eb9L; 0x3ff3851eb851eb85L;
         0xbff3851eb851eb85L |]
    ~steps:71
    ~steady:
      [| 0x4006db6db6db6db8L; 0x3ff2492492492493L; 0x402a4929a35e7c1cL;
         0x4006db5972860f7eL |]
    ~thr:
      [ ("log", 0x4016db6db6db6db8L); ("swap", 0x4016db5972860f7eL);
        ("task", 0x4016db6db6db6db8L) ];
  run "hidden4x2" hiding_model
    ~ddt0:
      [| 0xc010000000000000L; 0x4010000000000000L; 0xc010000000000000L;
         0x4010000000000000L |]
    ~ddtp:
      [| 0x401fb851eb851eb9L; 0xc01fb851eb851eb9L; 0x3ff3851eb851eb85L;
         0xbff3851eb851eb85L |]
    ~steps:74
    ~steady:
      [| 0x3ff777755305e00fL; 0x3fe1111559f43fdbL; 0x400555577a0e25fcL;
         0x3ff555510be3b3feL |]
    ~thr:[ ("log", 0x4005555ab0714fd2L); ("swap", 0x400555510be3b3feL) ];
  run "roaming16" (Scenarios.Roaming.pepa_source ~replicas:16)
    ~ddt0:
      [| 0xc030000000000000L; 0x4030000000000000L; 0xc030000000000000L;
         0x4030000000000000L; 0x0L |]
    ~ddtp:
      [| 0x4008666666666666L; 0xc008666666666666L; 0x4008666666666666L;
         0xc008666666666666L; 0x0L |]
    ~steps:79
    ~steady:
      [| 0x4003b13fec09afd3L; 0x4016276009fb2817L; 0x4024ec4ffb026bfaL;
         0x3ffd89dda812e594L; 0x400d89d13fecdd66L |]
    ~thr:
      [ ("connect", 0x401d89dfe20e87bcL); ("disconnect", 0x401d89d13fecdd66L);
        ("transmit", 0x401d89dda812e594L) ]

(* ------------------------------------------------------------------ *)
(* Three-way agreement on the roaming scenario                         *)
(* ------------------------------------------------------------------ *)

let test_three_way_roaming () =
  (* Exact (aggregated) solve, fluid approximation, and Monte-Carlo
     simulation must agree on the roaming users' throughput at 16
     replicas: the simulation confidence interval brackets both. *)
  let source = Scenarios.Roaming.pepa_source ~replicas:16 in
  let space = Pepa.Statespace.of_string ~symmetry:true source in
  let pi = Pepa.Statespace.steady_state ~lump:true space in
  let exact = Pepa.Statespace.throughput space pi "transmit" in
  let form = Fluid.Vector_form.of_string source in
  let x, _ = integrate_form form in
  let fluid = Fluid.Vector_form.throughput form x "transmit" in
  Alcotest.(check bool) "fluid within 5% of exact" true (rel_err ~exact fluid < 0.05);
  (* Jumps that carry transmit, for the simulation's counting reward.
     The pairs must identify the action uniquely. *)
  let pairs = Hashtbl.create 64 in
  let lts = Pepa.Statespace.lts space in
  Markov.Lts.iter lts (fun ~src ~label ~rate:_ ~dst ->
      if Pepa.Action.equal label (Pepa.Action.act "transmit") then
        Hashtbl.replace pairs (src, dst) true);
  Markov.Lts.iter lts (fun ~src ~label ~rate:_ ~dst ->
      if
        Hashtbl.mem pairs (src, dst)
        && not (Pepa.Action.equal label (Pepa.Action.act "transmit"))
      then Alcotest.fail "transmit jumps are not uniquely identified");
  let chain = Pepa.Statespace.ctmc space in
  let rng = Markov.Simulate.Rng.create ~seed:20260806L in
  let estimate =
    Markov.Simulate.throughput_estimate chain ~rng
      ~initial:(Pepa.Statespace.initial_index space)
      ~batches:24 ~batch_time:80.0 ~warmup:40.0
      ~counts:(fun src dst -> Hashtbl.mem pairs (src, dst))
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

let suite =
  [
    Alcotest.test_case "rk45 relaxation" `Quick test_rk45_relaxation;
    Alcotest.test_case "rk45 kinetics equilibrium" `Quick test_rk45_kinetics;
    Alcotest.test_case "rk45 accuracy vs closed form" `Quick test_rk45_accuracy;
    Alcotest.test_case "rk45 reports divergence" `Quick test_rk45_divergence;
    Alcotest.test_case "vector form shape" `Quick test_vector_form_shape;
    Alcotest.test_case "passive rates rejected" `Quick test_vector_form_rejects_passive;
    Alcotest.test_case "population conservation" `Quick test_fluid_conservation;
    Alcotest.test_case "bounded-capacity flux" `Quick test_fluid_bounded_capacity;
    Alcotest.test_case "fluid vs exact at 16 replicas" `Quick test_fluid_vs_exact_16;
    Alcotest.test_case "hiding" `Quick test_fluid_hiding;
    Alcotest.test_case "with_count scaling" `Quick test_with_count_scaling;
    Alcotest.test_case "leaf proportions" `Quick test_leaf_proportions;
    Alcotest.test_case "workbench fluid analysis" `Quick test_workbench_fluid;
    Alcotest.test_case "approximation xmltable round trip" `Quick
      test_results_approximation_roundtrip;
    Alcotest.test_case "pipeline fluid mode and fallback" `Quick test_pipeline_fluid;
    Alcotest.test_case "bit-identity with the pre-IR vector form" `Quick test_bit_identity;
    Alcotest.test_case "three-way roaming agreement" `Slow test_three_way_roaming;
    Alcotest.test_case "rk45 never stops at t = 0" `Quick test_rk45_loose_tolerances;
  ]
