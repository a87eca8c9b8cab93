(* Pipeline performance benchmark: the perf trajectory starts here.

   Times the three stages of the solve pipeline — state-space build,
   CTMC assembly (CSR + transposed generator) and steady-state solve —
   on the E6 scalability families of the paper, and writes a
   machine-readable BENCH_PIPELINE.json at the repository root so later
   PRs can compare against it.

     dune exec bench/perf.exe            # full sweep, writes BENCH_PIPELINE.json
     dune exec bench/perf.exe -- --smoke # tiny sweep, same format
     dune exec bench/perf.exe -- --out somewhere.json
     dune exec bench/perf.exe -- --trace trace.json  # also emit a Chrome trace

   Stage timings go through [Obs.Span.timed], so the numbers in the
   JSON and the spans in the trace come from the same clock. *)

let replicated_model n =
  Printf.sprintf
    {|
      Proc = (task, 1.0).(swap, 2.0).Proc;
      Srv = (task, infty).(log, 5.0).Srv;
      system (Proc[%d]) <task> Srv;
    |}
    n

(* The fluid family keeps both sides active (passive rates have no
   fluid interpretation) and couples a server pool a quarter the size
   of the processor pool, so the min-semantics cooperation stays
   genuinely bilateral.  Same shape as the replicated family, which is
   what makes the fluid-vs-exact comparison meaningful. *)
let fluid_model n m =
  Printf.sprintf
    {|
      Proc = (task, 1.0).(swap, 2.0).Proc;
      Srv = (task, 2.0).(log, 5.0).Srv;
      system (Proc[%d]) <task> (Srv[%d]);
    |}
    n m

(* Major-heap high-water mark after the instance ran: [top_heap_words]
   is monotone over the process, so per-instance numbers record how the
   sweep's footprint grows with the parameter.  Before the first major
   collection the runtime reports [top_heap_words] as 0, which made
   sub-millisecond instances log a zero footprint; the current
   [heap_words] is a live lower bound, so take the max of the two. *)
let heap_words () =
  let s = Gc.quick_stat () in
  max s.Gc.top_heap_words s.Gc.heap_words

type row = {
  parameter : int;
  states : int;
  transitions : int;
  build_s : float;
  assemble_s : float;
  solve_s : float;
  iterations : int;
  residual : float;
  method_used : string;
  peak_heap_words : int;
}

(* The same pipeline run under [--aggregate both]: symmetry reduction
   while exploring, lumping before the solve.  [divergence] is the
   largest absolute throughput difference against the unaggregated run
   — aggregation is exact, so anything beyond float noise is a bug and
   fails the benchmark. *)
type agg = {
  agg_states : int;
  agg_transitions : int;
  agg_classes : int;
  agg_build_s : float;
  agg_lump_s : float;
  agg_solve_s : float;
  speedup : float;
  divergence : float;
}

let time = Obs.Span.timed

let solve_options = Markov.Steady.default_options

let max_divergence = ref 0.0

let steady_divergence pi_a pi_b =
  if Array.length pi_a <> Array.length pi_b then infinity
  else begin
    let d = ref 0.0 in
    Array.iteri (fun i p -> d := Float.max !d (Float.abs (p -. pi_b.(i)))) pi_a;
    !d
  end

let compare_throughputs unagg agg =
  List.fold_left2
    (fun acc (name_u, v_u) (name_a, v_a) ->
      assert (name_u = name_a);
      Float.max acc (Float.abs (v_u -. v_a)))
    0.0 unagg agg

let pepa_row n =
  let attrs = [ ("replicas", Obs.Span.Int n) ] in
  let space, build_s =
    time ~attrs "bench.pepa.build" (fun _ -> Pepa.Statespace.of_string (replicated_model n))
  in
  let chain, assemble_s =
    time ~attrs "bench.pepa.assemble" (fun _ ->
        let chain = Pepa.Statespace.ctmc space in
        ignore (Markov.Ctmc.generator_transposed chain);
        chain)
  in
  let (pi, stats), solve_s =
    time ~attrs "bench.pepa.solve" (fun _ ->
        Markov.Steady.solve_stats ~options:solve_options chain)
  in
  (* Aggregated run of the same instance. *)
  let space_a, agg_build_s =
    time ~attrs "bench.pepa.build_agg" (fun _ ->
        Pepa.Statespace.of_string ~symmetry:true (replicated_model n))
  in
  let part, agg_lump_s =
    time ~attrs "bench.pepa.lump" (fun _ -> Pepa.Statespace.lump_partition space_a)
  in
  let pi_a, agg_solve_s =
    time ~attrs "bench.pepa.solve_agg" (fun _ ->
        Pepa.Statespace.steady_state ~options:solve_options ~lump:true space_a)
  in
  let divergence =
    compare_throughputs
      (Pepa.Statespace.throughputs space pi)
      (Pepa.Statespace.throughputs space_a pi_a)
  in
  max_divergence := Float.max !max_divergence divergence;
  let total = build_s +. assemble_s +. solve_s in
  let agg_total = agg_build_s +. agg_lump_s +. agg_solve_s in
  ( {
      parameter = n;
      states = Pepa.Statespace.n_states space;
      transitions = Pepa.Statespace.n_transitions space;
      build_s;
      assemble_s;
      solve_s;
      iterations = stats.Markov.Steady.iterations;
      residual = stats.Markov.Steady.residual;
      method_used = Markov.Steady.method_name stats.Markov.Steady.method_used;
      peak_heap_words = heap_words ();
    },
    {
      agg_states = Pepa.Statespace.n_states space_a;
      agg_transitions = Pepa.Statespace.n_transitions space_a;
      agg_classes = part.Markov.Lump.n_classes;
      agg_build_s;
      agg_lump_s;
      agg_solve_s;
      speedup = (if agg_total > 0.0 then total /. agg_total else 0.0);
      divergence;
    } )

let net_row k =
  let diagram = Scenarios.Pda.diagram_with_transmitters k in
  let rates = Scenarios.Pda.rates_for_transmitters k in
  let ex = Extract.Ad_to_pepanet.extract ~rates diagram in
  let compiled = Pepanet.Net_compile.compile ex.Extract.Ad_to_pepanet.net in
  let attrs = [ ("transmitters", Obs.Span.Int k) ] in
  let space, build_s =
    time ~attrs "bench.net.build" (fun _ -> Pepanet.Net_statespace.build compiled)
  in
  let chain, assemble_s =
    time ~attrs "bench.net.assemble" (fun _ ->
        let chain = Markov.Lts.ctmc (Pepanet.Net_statespace.lts space) in
        ignore (Markov.Ctmc.generator_transposed chain);
        chain)
  in
  let (pi, stats), solve_s =
    time ~attrs "bench.net.solve" (fun _ ->
        Markov.Steady.solve_stats ~options:solve_options chain)
  in
  let space_a, agg_build_s =
    time ~attrs "bench.net.build_agg" (fun _ ->
        Pepanet.Net_statespace.build ~symmetry:true compiled)
  in
  let part, agg_lump_s =
    time ~attrs "bench.net.lump" (fun _ -> Pepanet.Net_statespace.lump_partition space_a)
  in
  let pi_a, agg_solve_s =
    time ~attrs "bench.net.solve_agg" (fun _ ->
        Pepanet.Net_statespace.steady_state ~options:solve_options ~lump:true space_a)
  in
  let divergence =
    compare_throughputs
      (Pepanet.Net_measures.throughputs space pi)
      (Pepanet.Net_measures.throughputs space_a pi_a)
  in
  max_divergence := Float.max !max_divergence divergence;
  let total = build_s +. assemble_s +. solve_s in
  let agg_total = agg_build_s +. agg_lump_s +. agg_solve_s in
  ( {
      parameter = k;
      states = Pepanet.Net_statespace.n_markings space;
      transitions = Pepanet.Net_statespace.n_transitions space;
      build_s;
      assemble_s;
      solve_s;
      iterations = stats.Markov.Steady.iterations;
      residual = stats.Markov.Steady.residual;
      method_used = Markov.Steady.method_name stats.Markov.Steady.method_used;
      peak_heap_words = heap_words ();
    },
    {
      agg_states = Pepanet.Net_statespace.n_markings space_a;
      agg_transitions = Pepanet.Net_statespace.n_transitions space_a;
      agg_classes = part.Markov.Lump.n_classes;
      agg_build_s;
      agg_lump_s;
      agg_solve_s;
      speedup = (if agg_total > 0.0 then total /. agg_total else 0.0);
      divergence;
    } )

(* ------------------------------------------------------------------ *)
(* Tandem queue family: the largest-exact-instance trajectory          *)
(* ------------------------------------------------------------------ *)

(* Three stations of capacity c give (c+1)^3 states — a slowly-mixing
   chain where the stationary methods need thousands of sweeps, which
   is exactly the regime BiCGStab is for.  The family sweeps capacity
   up to 99 (a million states), built with the packed-key explorer and
   solved exactly with (sequential) BiCGStab.  Up to
   the capacity bound below, a sequential Gauss-Seidel solve of the
   same chain cross-checks the steady vector to 1e-10. *)

type tandem_row = {
  td_capacity : int;
  td_states : int;
  td_transitions : int;
  td_build_s : float;
  td_assemble_s : float;
  td_solve_s : float;
  td_iterations : int;
  td_residual : float;
  td_method : string;
  td_check_divergence : float option;  (** vs sequential Gauss-Seidel *)
  td_heap_words : int;
}

let tandem_stations = 3

(* Cross-check bound: beyond ~10^5 states the Gauss-Seidel yardstick
   costs more than the instance it checks, so the largest rows rely on
   the residual gate alone. *)
let tandem_check_capacity = 46
let tandem_divergence_tolerance = 1e-10
let max_tandem_divergence = ref 0.0
let tandem_residual_tolerance = 1e-10
let tandem_gate_failure = ref None

let tandem_fail msg = if !tandem_gate_failure = None then tandem_gate_failure := Some msg

let tandem_row capacity =
  let attrs = [ ("capacity", Obs.Span.Int capacity) ] in
  let source = Scenarios.Tandem.source ~stations:tandem_stations ~capacity in
  let space, build_s =
    time ~attrs "bench.tandem.build" (fun _ ->
        Pepa.Statespace.of_string ~max_states:1_100_000 source)
  in
  let chain, assemble_s =
    time ~attrs "bench.tandem.assemble" (fun _ ->
        let chain = Pepa.Statespace.ctmc space in
        ignore (Markov.Ctmc.generator_transposed chain);
        chain)
  in
  (* Cross-checked instances solve to the default 1e-12 so the
     Gauss-Seidel comparison has headroom under the 1e-10 divergence
     gate; the largest rows stop at the residual gate itself — the
     extra two decades buy nothing they would be measured against. *)
  let tandem_solve_options =
    if capacity <= tandem_check_capacity then solve_options
    else { solve_options with Markov.Steady.tolerance = tandem_residual_tolerance }
  in
  let (pi, stats), solve_s =
    time ~attrs "bench.tandem.solve" (fun _ ->
        Markov.Steady.solve_stats ~method_:Markov.Steady.Bicgstab
          ~options:tandem_solve_options chain)
  in
  let method_used = Markov.Steady.method_name stats.Markov.Steady.method_used in
  if method_used <> "bicgstab" then
    tandem_fail
      (Printf.sprintf "capacity %d fell back to %s instead of bicgstab" capacity
         method_used);
  if stats.Markov.Steady.residual > tandem_residual_tolerance then
    tandem_fail
      (Printf.sprintf "capacity %d residual %.3e exceeds %.1e" capacity
         stats.Markov.Steady.residual tandem_residual_tolerance);
  let td_check_divergence =
    if capacity > tandem_check_capacity then None
    else begin
      let pi_gs, _ =
        time ~attrs "bench.tandem.check" (fun _ ->
            Markov.Steady.solve ~method_:Markov.Steady.Gauss_seidel ~options:solve_options
              chain)
      in
      let d = steady_divergence pi_gs pi in
      max_tandem_divergence := Float.max !max_tandem_divergence d;
      Some d
    end
  in
  {
    td_capacity = capacity;
    td_states = Pepa.Statespace.n_states space;
    td_transitions = Pepa.Statespace.n_transitions space;
    td_build_s = build_s;
    td_assemble_s = assemble_s;
    td_solve_s = solve_s;
    td_iterations = stats.Markov.Steady.iterations;
    td_residual = stats.Markov.Steady.residual;
    td_method = method_used;
    td_check_divergence;
    td_heap_words = heap_words ();
  }

(* ISSUE 9 memory gate: the packed-key state store and the streamed CSR
   assembly must at least halve the 16-replica footprint measured
   before the compression work landed (PR 8 recorded 84,974,954 words
   on this container). *)
let pr8_peak_heap_words_at_16 = 84_974_954

(* ------------------------------------------------------------------ *)
(* Fluid approximation family                                          *)
(* ------------------------------------------------------------------ *)

type fluid_row = {
  f_replicas : int;
  f_servers : int;
  f_dim : int;
  f_derive_s : float;
  f_integrate_s : float;
  f_steps : int;
  f_rejected : int;
  f_evaluations : int;
  f_throughput : float;
  f_exact : float;
  f_rel_err : float;
  f_heap_words : int;
}

(* Accuracy gate: at 16 replicas and beyond, the fluid throughput must
   be within 5% of the exact (aggregated) solve. *)
let fluid_rel_err_tolerance = 0.05
let max_fluid_rel_err = ref 0.0

let integrate_form form =
  Fluid.Rk45.integrate
    ~f:(fun ~t:_ ~x ~dx -> Fluid.Vector_form.derivative form x dx)
    ~x0:(Fluid.Vector_form.initial form) ()

let fluid_row n =
  let m = max 1 (n / 4) in
  let attrs = [ ("replicas", Obs.Span.Int n) ] in
  let form, derive_s =
    time ~attrs "bench.fluid.derive" (fun _ ->
        Fluid.Vector_form.of_string (fluid_model n m))
  in
  let (x, stats), integrate_s =
    time ~attrs "bench.fluid.integrate" (fun _ -> integrate_form form)
  in
  let f_throughput = Fluid.Vector_form.throughput form x "task" in
  (* The exact yardstick, on the aggregated chain. *)
  let space = Pepa.Statespace.of_string ~symmetry:true (fluid_model n m) in
  let pi = Pepa.Statespace.steady_state ~options:solve_options ~lump:true space in
  let f_exact = Pepa.Statespace.throughput space pi "task" in
  let f_rel_err = Float.abs (f_throughput -. f_exact) /. Float.max 1e-12 (Float.abs f_exact) in
  if n >= 16 then max_fluid_rel_err := Float.max !max_fluid_rel_err f_rel_err;
  {
    f_replicas = n;
    f_servers = m;
    f_dim = Fluid.Vector_form.dim form;
    f_derive_s = derive_s;
    f_integrate_s = integrate_s;
    f_steps = stats.Fluid.Rk45.steps;
    f_rejected = stats.Fluid.Rk45.rejected;
    f_evaluations = stats.Fluid.Rk45.evaluations;
    f_throughput;
    f_exact;
    f_rel_err;
    f_heap_words = heap_words ();
  }

(* The scaling family re-parameterises one derived form through
   [with_count]: the regime the exact path cannot touch (a 10^6-replica
   interleaving has ~10^6 states even aggregated), while the ODE stays
   4-dimensional. *)
type scaling_row = {
  s_replicas : int;
  s_integrate_s : float;
  s_steps : int;
  s_throughput : float;
  s_heap_words : int;
}

(* Speed gate: the million-replica instance must integrate to steady
   state in under a second, or the population-size-independence claim
   is broken. *)
let scaling_time_budget_s = 1.0
let scaling_gate_breached = ref false

let scaling_row base ~count =
  let pops = Fluid.Vector_form.pops base in
  let index label =
    let found = ref (-1) in
    Array.iteri (fun i p -> if p.Fluid.Vector_form.label = label then found := i) pops;
    !found
  in
  let form =
    Fluid.Vector_form.with_count
      (Fluid.Vector_form.with_count base ~pop:(index "Proc") ~count:(float_of_int count))
      ~pop:(index "Srv")
      ~count:(float_of_int (max 1 (count / 4)))
  in
  let attrs = [ ("replicas", Obs.Span.Int count) ] in
  let (x, stats), integrate_s =
    time ~attrs "bench.fluid.scale" (fun _ -> integrate_form form)
  in
  if count >= 1_000_000 && integrate_s >= scaling_time_budget_s then
    scaling_gate_breached := true;
  {
    s_replicas = count;
    s_integrate_s = integrate_s;
    s_steps = stats.Fluid.Rk45.steps;
    s_throughput = Fluid.Vector_form.throughput form x "task";
    s_heap_words = heap_words ();
  }

(* ------------------------------------------------------------------ *)
(* Fluid net family                                                    *)
(* ------------------------------------------------------------------ *)

(* The net analogue of the fluid family: the scaled roaming ring
   ([Scenarios.Roaming.pepanet_family]), where every capacity grows
   with the token count so the fluid limit applies, measured against
   the hand-lumped exact population chain (tokens of one family are
   interchangeable, so the marking graph lumps to count vectors — the
   only exact yardstick still standing at 16 tokens per place). *)

type fluid_net_row = {
  fn_tokens : int;
  fn_dim : int;
  fn_lumped_states : int;
  fn_derive_s : float;
  fn_integrate_s : float;
  fn_exact_s : float;
  fn_steps : int;
  fn_hop_fluid : float;
  fn_hop_exact : float;
  fn_rel_err : float;
  fn_heap_words : int;
}

(* Accuracy gate: at 16 tokens and beyond, the fluid hop throughput
   must be within 5% of the lumped exact solve. *)
let fluid_net_rel_err_tolerance = 0.05
let max_fluid_net_rel_err = ref 0.0

let integrate_net nf =
  Fluid.Rk45.integrate
    ~f:(fun ~t:_ ~x ~dx -> Fluid.Net_form.derivative nf x dx)
    ~x0:(Fluid.Net_form.initial nf) ()

let fluid_net_row n =
  let attrs = [ ("tokens", Obs.Span.Int n) ] in
  let nf, derive_s =
    time ~attrs "bench.fluid_net.derive" (fun _ ->
        Fluid.Net_form.of_string (Scenarios.Roaming.pepanet_family ~tokens:n))
  in
  let (x, stats), integrate_s =
    time ~attrs "bench.fluid_net.integrate" (fun _ -> integrate_net nf)
  in
  let fn_hop_fluid = Fluid.Net_form.throughput nf x "hop" in
  let (lumped_states, fn_hop_exact), exact_s =
    time ~attrs "bench.fluid_net.exact" (fun _ ->
        let lf = Scenarios.Roaming.lumped_family ~tokens:n in
        let pi = Markov.Steady.solve lf.Scenarios.Roaming.lumped_ctmc in
        ( Markov.Ctmc.n_states lf.Scenarios.Roaming.lumped_ctmc,
          lf.Scenarios.Roaming.lumped_hop_throughput pi ))
  in
  let fn_rel_err =
    Float.abs (fn_hop_fluid -. fn_hop_exact) /. Float.max 1e-12 (Float.abs fn_hop_exact)
  in
  if n >= 16 then max_fluid_net_rel_err := Float.max !max_fluid_net_rel_err fn_rel_err;
  {
    fn_tokens = n;
    fn_dim = Fluid.Net_form.dim nf;
    fn_lumped_states = lumped_states;
    fn_derive_s = derive_s;
    fn_integrate_s = integrate_s;
    fn_exact_s = exact_s;
    fn_steps = stats.Fluid.Rk45.steps;
    fn_hop_fluid;
    fn_hop_exact;
    fn_rel_err;
    fn_heap_words = heap_words ();
  }

(* The net scaling family re-parameterises one derived form through
   [with_count]: the place trees keep one cell and one monitor each, so
   the ODE stays 12-dimensional while agent and monitor masses grow to
   10^5 — a regime where even the lumped chain has ~10^19 states.  All
   per-individual rates are O(1) and every population scales (the
   monitors too — scaling a singleton's rate instead would make the
   ODE stiff in proportion to the count); only the transition capacity
   is written into the source, since [with_count] cannot change a
   rate. *)
let fluid_net_scaling_model count =
  Printf.sprintf
    {|
      probe_r = 4.0;
      hop_cap = %f;
      Agent = (probe, probe_r).Ready;
      Ready = (hop, 1.0).Agent;
      Monitor = (probe, 10.0).(log, 5.0).Monitor;

      token Agent;

      place HostA = Agent[Agent] <probe> Monitor;
      place HostB = Agent[_] <probe> Monitor;
      place HostC = Agent[_] <probe> Monitor;

      trans hop_ab = (hop, hop_cap) from HostA to HostB;
      trans hop_bc = (hop, hop_cap) from HostB to HostC;
      trans hop_ca = (hop, hop_cap) from HostC to HostA;
    |}
    (0.5 *. float_of_int count)

type net_scaling_row = {
  ns_tokens : int;
  ns_integrate_s : float;
  ns_steps : int;
  ns_hop : float;
  ns_heap_words : int;
}

(* Speed gate: the 10^5-token instance must integrate to steady state
   in under a second, or the population-size-independence claim is
   broken for nets. *)
let net_scaling_time_budget_s = 1.0
let net_scaling_gate_breached = ref false

let fluid_net_scaling_row ~count =
  let base = Fluid.Net_form.of_string (fluid_net_scaling_model count) in
  let nf =
    List.fold_left
      (fun nf label ->
        Fluid.Net_form.with_count nf
          ~block:(Fluid.Net_form.block_index nf ~label)
          ~count:(float_of_int count))
      base
      [ "Agent@HostA"; "Monitor@HostA"; "Monitor@HostB"; "Monitor@HostC" ]
  in
  let attrs = [ ("tokens", Obs.Span.Int count) ] in
  let (x, stats), integrate_s =
    time ~attrs "bench.fluid_net.scale" (fun _ -> integrate_net nf)
  in
  if count >= 100_000 && integrate_s >= net_scaling_time_budget_s then
    net_scaling_gate_breached := true;
  {
    ns_tokens = count;
    ns_integrate_s = integrate_s;
    ns_steps = stats.Fluid.Rk45.steps;
    ns_hop = Fluid.Net_form.throughput nf x "hop";
    ns_heap_words = heap_words ();
  }

(* ------------------------------------------------------------------ *)
(* Daemon sweep family: warm-started parameter grids                   *)
(* ------------------------------------------------------------------ *)

(* The service layer's batch verb ([choreographer client sweep]),
   measured without the wire: one parsed model, the same rate grid
   solved cold (every point from the uniform vector) and warm (each
   point seeded with the previous point's steady distribution).  The
   model needs named rate constants — that is what a sweep axis
   redefines — and an iterative solve for the warm start to matter, so
   the method is pinned to Gauss-Seidel on both sides.  Wall-clock is
   recorded but the gates are deterministic: the warm grid must not
   need more total iterations than the cold one, and both grids must
   agree on every throughput to 1e-10 (the warm start changes where
   the solver starts, never where it converges). *)

let sweep_model n =
  Printf.sprintf
    {|
      task_r = 1.0;
      swap_r = 2.0;
      log_r = 5.0;
      Proc = (task, task_r).(swap, swap_r).Proc;
      Srv = (task, 2.0).(log, log_r).Srv;
      system (Proc[%d]) <task> (Srv[%d]);
    |}
    n
    (max 1 (n / 4))

type sweep_bench = {
  sw_replicas : int;
  sw_points : int;
  sw_states : int;
  sw_cold_s : float;
  sw_warm_s : float;
  sw_cold_iterations : int;
  sw_warm_iterations : int;
  sw_warm_started_points : int;
  sw_divergence : float;  (** max |warm - cold| over every point's throughputs *)
}

let sweep_iteration_gate_breached = ref None
let max_sweep_divergence = ref 0.0

let sweep_bench_row ~replicas ~grid =
  let model =
    Choreographer.Workbench.parse_pepa ~name:"bench-sweep" (sweep_model replicas)
  in
  let options =
    {
      Service.Protocol.default_options with
      Service.Protocol.method_ = Some Markov.Steady.Gauss_seidel;
    }
  in
  let axes = [ { Service.Protocol.target = `Rate "task_r"; values = grid } ] in
  let attrs = [ ("replicas", Obs.Span.Int replicas) ] in
  let run warm_start =
    Service.Sweep.run ~name:"bench-sweep" ~model ~options ~axes
      ~backend:Service.Protocol.Exact ~warm_start
  in
  let cold, cold_s = time ~attrs "bench.sweep.cold" (fun _ -> run false) in
  let warm, warm_s = time ~attrs "bench.sweep.warm" (fun _ -> run true) in
  let iterations r =
    List.fold_left (fun acc p -> acc + p.Service.Sweep.iterations) 0 r.Service.Sweep.points
  in
  let divergence =
    List.fold_left2
      (fun acc (w : Service.Sweep.point) (c : Service.Sweep.point) ->
        Float.max acc (compare_throughputs w.Service.Sweep.throughputs c.Service.Sweep.throughputs))
      0.0 warm.Service.Sweep.points cold.Service.Sweep.points
  in
  max_sweep_divergence := Float.max !max_sweep_divergence divergence;
  let cold_iterations = iterations cold and warm_iterations = iterations warm in
  if warm_iterations > cold_iterations && !sweep_iteration_gate_breached = None then
    sweep_iteration_gate_breached :=
      Some
        (Printf.sprintf "replicas %d: warm grid took %d iterations, cold %d" replicas
           warm_iterations cold_iterations);
  {
    sw_replicas = replicas;
    sw_points = List.length cold.Service.Sweep.points;
    sw_states =
      (match cold.Service.Sweep.points with p :: _ -> p.Service.Sweep.n_states | [] -> 0);
    sw_cold_s = cold_s;
    sw_warm_s = warm_s;
    sw_cold_iterations = cold_iterations;
    sw_warm_iterations = warm_iterations;
    sw_warm_started_points =
      List.length (List.filter (fun p -> p.Service.Sweep.warm) warm.Service.Sweep.points);
    sw_divergence = divergence;
  }

let sweep_bench_json r =
  Printf.sprintf
    {|    { "replicas": %d, "grid_points": %d, "states_per_point": %d,
      "cold_s": %.6f, "warm_s": %.6f, "speedup": %.2f,
      "cold_iterations": %d, "warm_iterations": %d, "warm_started_points": %d,
      "throughput_divergence": %.3e }|}
    r.sw_replicas r.sw_points r.sw_states r.sw_cold_s r.sw_warm_s
    (if r.sw_warm_s > 0.0 then r.sw_cold_s /. r.sw_warm_s else 0.0)
    r.sw_cold_iterations r.sw_warm_iterations r.sw_warm_started_points r.sw_divergence

let fluid_net_row_json r =
  Printf.sprintf
    {|    { "tokens": %d, "ode_dim": %d, "lumped_states": %d,
      "derive_s": %.6f, "integrate_s": %.6f, "exact_s": %.6f, "steps": %d,
      "hop_throughput_fluid": %.6f, "hop_throughput_exact": %.6f,
      "rel_err": %.3e, "peak_heap_words": %d }|}
    r.fn_tokens r.fn_dim r.fn_lumped_states r.fn_derive_s r.fn_integrate_s r.fn_exact_s
    r.fn_steps r.fn_hop_fluid r.fn_hop_exact r.fn_rel_err r.fn_heap_words

let net_scaling_row_json r =
  Printf.sprintf
    {|    { "tokens": %d, "integrate_s": %.6f, "steps": %d, "hop_throughput": %.6f, "peak_heap_words": %d }|}
    r.ns_tokens r.ns_integrate_s r.ns_steps r.ns_hop r.ns_heap_words

let fluid_row_json r =
  Printf.sprintf
    {|    { "replicas": %d, "servers": %d, "ode_dim": %d,
      "derive_s": %.6f, "integrate_s": %.6f, "steps": %d, "rejected_steps": %d,
      "evaluations": %d, "task_throughput_fluid": %.6f, "task_throughput_exact": %.6f,
      "rel_err": %.3e, "peak_heap_words": %d }|}
    r.f_replicas r.f_servers r.f_dim r.f_derive_s r.f_integrate_s r.f_steps r.f_rejected
    r.f_evaluations r.f_throughput r.f_exact r.f_rel_err r.f_heap_words

let scaling_row_json r =
  Printf.sprintf
    {|    { "replicas": %d, "integrate_s": %.6f, "steps": %d, "task_throughput": %.6f, "peak_heap_words": %d }|}
    r.s_replicas r.s_integrate_s r.s_steps r.s_throughput r.s_heap_words

let row_json ~parameter_name (r, a) =
  let states_per_sec =
    if r.build_s > 0.0 then float_of_int r.states /. r.build_s else 0.0
  in
  Printf.sprintf
    {|    { "%s": %d, "states": %d, "transitions": %d,
      "build_s": %.6f, "assemble_s": %.6f, "solve_s": %.6f, "total_s": %.6f,
      "states_per_sec_build": %.0f, "iterations": %d, "residual": %.3e, "method": "%s",
      "peak_heap_words": %d,
      "aggregated": { "states": %d, "transitions": %d, "lumped_classes": %d,
        "build_s": %.6f, "lump_s": %.6f, "solve_s": %.6f, "total_s": %.6f,
        "speedup": %.2f, "throughput_divergence": %.3e } }|}
    parameter_name r.parameter r.states r.transitions r.build_s r.assemble_s r.solve_s
    (r.build_s +. r.assemble_s +. r.solve_s)
    states_per_sec r.iterations r.residual r.method_used r.peak_heap_words a.agg_states
    a.agg_transitions a.agg_classes a.agg_build_s a.agg_lump_s a.agg_solve_s
    (a.agg_build_s +. a.agg_lump_s +. a.agg_solve_s)
    a.speedup a.divergence

let tandem_row_json r =
  let check =
    match r.td_check_divergence with
    | Some d -> Printf.sprintf "%.3e" d
    | None -> "null"
  in
  Printf.sprintf
    {|    { "stations": %d, "capacity": %d, "states": %d, "transitions": %d,
      "build_s": %.6f, "assemble_s": %.6f, "solve_s": %.6f, "total_s": %.6f,
      "iterations": %d, "residual": %.3e, "method": "%s",
      "check_divergence_vs_gauss_seidel": %s, "peak_heap_words": %d }|}
    tandem_stations r.td_capacity r.td_states r.td_transitions r.td_build_s
    r.td_assemble_s r.td_solve_s
    (r.td_build_s +. r.td_assemble_s +. r.td_solve_s)
    r.td_iterations r.td_residual r.td_method check r.td_heap_words

let () =
  let smoke = Array.exists (( = ) "--smoke") Sys.argv in
  let out = ref "BENCH_PIPELINE.json" in
  Array.iteri (fun i a -> if a = "--out" && i + 1 < Array.length Sys.argv then out := Sys.argv.(i + 1)) Sys.argv;
  (* --trace FILE: collect spans (the same ones the timings come from)
     and export them as a Chrome trace on exit. *)
  Array.iteri
    (fun i a ->
      if a = "--trace" && i + 1 < Array.length Sys.argv then begin
        let path = Sys.argv.(i + 1) in
        Obs.Config.enable ();
        at_exit (fun () -> Obs.Sink.write_chrome_trace ~path)
      end)
    Sys.argv;
  (* --ledger FILE: append this bench invocation's flight record, so
     [choreographer obs diff/regress] works over bench runs too. *)
  Array.iteri
    (fun i a ->
      if a = "--ledger" && i + 1 < Array.length Sys.argv then begin
        let path = Sys.argv.(i + 1) in
        Obs.Config.enable ();
        at_exit (fun () ->
            let record =
              Obs.Ledger.capture ~tool:"bench perf" ~model:"-" ~model_hash:""
                ~options:[ ("smoke", string_of_bool smoke) ]
                ~exit_status:"ok" ()
            in
            try Obs.Ledger.append ~path record
            with Sys_error msg ->
              Printf.eprintf "warning: could not append to ledger %s: %s\n%!" path msg)
      end)
    Sys.argv;
  let replicas = if smoke then [ 2; 4 ] else [ 2; 4; 6; 8; 10; 12; 14; 16 ] in
  let transmitters = if smoke then [ 2 ] else [ 2; 3; 5; 8; 12 ] in
  let pepa_rows =
    List.map
      (fun n ->
        let r, a = pepa_row n in
        Printf.eprintf
          "replicas=%2d states=%7d transitions=%8d build=%.4fs assemble=%.4fs solve=%.4fs (%d iterations, %s)\n%!"
          n r.states r.transitions r.build_s r.assemble_s r.solve_s r.iterations r.method_used;
        Printf.eprintf
          "            aggregated: states=%7d classes=%7d total=%.4fs speedup=%.1fx divergence=%.1e\n%!"
          a.agg_states a.agg_classes
          (a.agg_build_s +. a.agg_lump_s +. a.agg_solve_s)
          a.speedup a.divergence;
        (r, a))
      replicas
  in
  let net_rows =
    List.map
      (fun k ->
        let r, a = net_row k in
        Printf.eprintf
          "transmitters=%2d markings=%7d transitions=%8d build=%.4fs assemble=%.4fs solve=%.4fs (%d iterations, %s)\n%!"
          k r.states r.transitions r.build_s r.assemble_s r.solve_s r.iterations r.method_used;
        Printf.eprintf
          "            aggregated: markings=%6d classes=%7d total=%.4fs speedup=%.1fx divergence=%.1e\n%!"
          a.agg_states a.agg_classes
          (a.agg_build_s +. a.agg_lump_s +. a.agg_solve_s)
          a.speedup a.divergence;
        (r, a))
      transmitters
  in
  let fluid_replicas = if smoke then [ 4; 16 ] else [ 2; 4; 8; 16; 32; 64 ] in
  let fluid_rows =
    List.map
      (fun n ->
        let r = fluid_row n in
        Printf.eprintf
          "fluid replicas=%2d dim=%d derive=%.4fs integrate=%.4fs steps=%d task=%.4f exact=%.4f rel_err=%.2e\n%!"
          n r.f_dim r.f_derive_s r.f_integrate_s r.f_steps r.f_throughput r.f_exact
          r.f_rel_err;
        r)
      fluid_replicas
  in
  let scaling_base = Fluid.Vector_form.of_string (fluid_model 16 4) in
  let scaling_replicas =
    if smoke then [ 10; 1_000_000 ]
    else [ 10; 100; 1_000; 10_000; 100_000; 1_000_000 ]
  in
  let scaling_rows =
    List.map
      (fun count ->
        let r = scaling_row scaling_base ~count in
        Printf.eprintf "fluid scaling replicas=%7d integrate=%.4fs steps=%d task=%.4f\n%!"
          count r.s_integrate_s r.s_steps r.s_throughput;
        r)
      scaling_replicas
  in
  let fluid_net_tokens = if smoke then [ 2; 16 ] else [ 2; 4; 8; 16 ] in
  let fluid_net_rows =
    List.map
      (fun n ->
        let r = fluid_net_row n in
        Printf.eprintf
          "fluid net tokens=%2d dim=%d lumped_states=%7d integrate=%.4fs exact=%.4fs hop=%.4f exact_hop=%.4f rel_err=%.2e\n%!"
          n r.fn_dim r.fn_lumped_states r.fn_integrate_s r.fn_exact_s r.fn_hop_fluid
          r.fn_hop_exact r.fn_rel_err;
        r)
      fluid_net_tokens
  in
  let net_scaling_tokens =
    if smoke then [ 10; 100_000 ] else [ 10; 100; 1_000; 10_000; 100_000 ]
  in
  let net_scaling_rows =
    List.map
      (fun count ->
        let r = fluid_net_scaling_row ~count in
        Printf.eprintf "fluid net scaling tokens=%7d integrate=%.4fs steps=%d hop=%.4f\n%!"
          count r.ns_integrate_s r.ns_steps r.ns_hop;
        r)
      net_scaling_tokens
  in
  let linspace lo hi n =
    List.init n (fun i -> lo +. ((hi -. lo) *. float_of_int i /. float_of_int (n - 1)))
  in
  let sweep_cases =
    if smoke then [ (4, linspace 0.5 2.0 3) ] else [ (8, linspace 0.25 2.0 8); (12, linspace 0.25 2.0 8) ]
  in
  let sweep_rows =
    List.map
      (fun (replicas, grid) ->
        let r = sweep_bench_row ~replicas ~grid in
        Printf.eprintf
          "sweep replicas=%2d points=%d states=%6d cold=%.4fs (%d iterations) warm=%.4fs (%d iterations, %d warm-started) divergence=%.1e\n%!"
          r.sw_replicas r.sw_points r.sw_states r.sw_cold_s r.sw_cold_iterations r.sw_warm_s
          r.sw_warm_iterations r.sw_warm_started_points r.sw_divergence;
        r)
      sweep_cases
  in
  (* The tandem family runs last: its million-state footprint would
     otherwise contaminate the monotone peak-heap numbers of the
     replicated family, which carry the memory gate. *)
  let tandem_capacities = if smoke then [ 4; 9 ] else [ 9; 21; 46; 99 ] in
  let tandem_rows =
    List.map
      (fun capacity ->
        let r = tandem_row capacity in
        Printf.eprintf
          "tandem capacity=%3d states=%8d transitions=%9d build=%.4fs assemble=%.4fs solve=%.4fs (%d iterations, %s, residual=%.1e)\n%!"
          capacity r.td_states r.td_transitions r.td_build_s r.td_assemble_s r.td_solve_s
          r.td_iterations r.td_method r.td_residual;
        (match r.td_check_divergence with
        | Some d -> Printf.eprintf "            gauss-seidel cross-check divergence=%.1e\n%!" d
        | None -> ());
        r)
      tandem_capacities
  in
  let largest_tandem = List.nth tandem_rows (List.length tandem_rows - 1) in
  let largest, largest_agg = List.nth pepa_rows (List.length pepa_rows - 1) in
  let json =
    String.concat "\n"
      [
        "{";
        {|  "benchmark": "state-space -> CTMC -> steady-state pipeline (paper Section 6 / bench E6)",|};
        {|  "generated_by": "dune exec bench/perf.exe",|};
        Printf.sprintf
          {|  "solver_options": { "tolerance": %.1e, "max_iterations": %d, "direct_limit": %d, "residual_stride": %d },|}
          solve_options.Markov.Steady.tolerance solve_options.Markov.Steady.max_iterations
          solve_options.Markov.Steady.direct_limit solve_options.Markov.Steady.residual_stride;
        {|  "replicated_process_family": [|};
        String.concat ",\n" (List.map (row_json ~parameter_name:"replicas") pepa_rows);
        "  ],";
        {|  "pda_transmitter_family": [|};
        String.concat ",\n" (List.map (row_json ~parameter_name:"transmitters") net_rows);
        "  ],";
        {|  "tandem_queue_family": [|};
        String.concat ",\n" (List.map tandem_row_json tandem_rows);
        "  ],";
        Printf.sprintf {|  "tandem_divergence_tolerance": %.1e,|}
          tandem_divergence_tolerance;
        Printf.sprintf
          {|  "largest_exact_instance": { "model": "tandem", "stations": %d, "capacity": %d, "states": %d, "transitions": %d, "method": "%s", "iterations": %d, "residual": %.3e, "total_s": %.6f, "peak_heap_words": %d },|}
          tandem_stations largest_tandem.td_capacity largest_tandem.td_states
          largest_tandem.td_transitions largest_tandem.td_method
          largest_tandem.td_iterations largest_tandem.td_residual
          (largest_tandem.td_build_s +. largest_tandem.td_assemble_s
          +. largest_tandem.td_solve_s)
          largest_tandem.td_heap_words;
        Printf.sprintf
          {|  "peak_heap_gate": { "baseline_pr8_words_at_16_replicas": %d, "required_reduction": 2.0, "measured_words_at_16_replicas": %d, "enforced": %b },|}
          pr8_peak_heap_words_at_16 largest.peak_heap_words (not smoke);
        {|  "fluid_family": [|};
        String.concat ",\n" (List.map fluid_row_json fluid_rows);
        "  ],";
        Printf.sprintf {|  "fluid_rel_err_tolerance_at_16": %.2f,|} fluid_rel_err_tolerance;
        {|  "fluid_scaling_family": [|};
        String.concat ",\n" (List.map scaling_row_json scaling_rows);
        "  ],";
        Printf.sprintf {|  "fluid_scaling_time_budget_s": %.2f,|} scaling_time_budget_s;
        {|  "fluid_net_family": [|};
        String.concat ",\n" (List.map fluid_net_row_json fluid_net_rows);
        "  ],";
        Printf.sprintf {|  "fluid_net_rel_err_tolerance_at_16": %.2f,|}
          fluid_net_rel_err_tolerance;
        {|  "fluid_net_scaling_family": [|};
        String.concat ",\n" (List.map net_scaling_row_json net_scaling_rows);
        "  ],";
        Printf.sprintf {|  "fluid_net_scaling_time_budget_s": %.2f,|}
          net_scaling_time_budget_s;
        {|  "daemon_sweep_family": [|};
        String.concat ",\n" (List.map sweep_bench_json sweep_rows);
        "  ],";
        {|  "daemon_sweep_gates": { "warm_iterations_le_cold": true, "throughput_divergence_tolerance": 1e-10 },|};
        Printf.sprintf
          {|  "largest_instance": { "replicas": %d, "states": %d, "transitions": %d, "total_s": %.6f, "aggregated_total_s": %.6f, "aggregated_speedup": %.2f },|}
          largest.parameter largest.states largest.transitions
          (largest.build_s +. largest.assemble_s +. largest.solve_s)
          (largest_agg.agg_build_s +. largest_agg.agg_lump_s +. largest_agg.agg_solve_s)
          largest_agg.speedup;
        (* Trajectory anchor: the list-based seed pipeline measured on
           this same container immediately before the flat-array rewrite
           (PR 1), same solver tolerance and direct limit.  Kept static
           so every regeneration of this file still records where the
           trajectory started. *)
        {|  "seed_reference_pr1": {
    "pipeline": "list-based (before flat-array rewrite)",
    "replicated_process_family": [
      { "replicas": 10, "total_s": 0.0429 },
      { "replicas": 12, "total_s": 0.2536 },
      { "replicas": 14, "total_s": 2.6149 },
      { "replicas": 16, "build_s": 4.8940, "assemble_s": 9.7915, "solve_s": 5.6092, "total_s": 20.2947 }
    ]
  }|};
        "}";
        "";
      ]
  in
  let oc = open_out !out in
  output_string oc json;
  close_out oc;
  Printf.eprintf "wrote %s\n%!" !out;
  (* Exactness gate: aggregation must reproduce every throughput to
     float noise.  A real divergence means the lumping or the symmetry
     reduction is wrong — fail loudly so CI catches it. *)
  if !max_divergence > 1e-9 then begin
    Printf.eprintf "error: aggregated throughputs diverge by %.3e (tolerance 1e-9)\n%!"
      !max_divergence;
    exit 1
  end;
  (* Fluid accuracy gate: the approximation earns its keep only if it
     is close where the exact path can still check it. *)
  if !max_fluid_rel_err > fluid_rel_err_tolerance then begin
    Printf.eprintf
      "error: fluid throughput off by %.2f%% at >=16 replicas (tolerance %.0f%%)\n%!"
      (100.0 *. !max_fluid_rel_err)
      (100.0 *. fluid_rel_err_tolerance);
    exit 1
  end;
  (* Fluid speed gate: cost independent of population size, or the
     scaling story is broken. *)
  if !scaling_gate_breached then begin
    Printf.eprintf "error: 10^6-replica fluid instance exceeded %.1fs\n%!"
      scaling_time_budget_s;
    exit 1
  end;
  (* Fluid net accuracy gate: the net lowering must match the lumped
     exact chain where the chain is still solvable. *)
  if !max_fluid_net_rel_err > fluid_net_rel_err_tolerance then begin
    Printf.eprintf
      "error: fluid net throughput off by %.2f%% at >=16 tokens (tolerance %.0f%%)\n%!"
      (100.0 *. !max_fluid_net_rel_err)
      (100.0 *. fluid_net_rel_err_tolerance);
    exit 1
  end;
  (* Fluid net speed gate: cost independent of token count. *)
  if !net_scaling_gate_breached then begin
    Printf.eprintf "error: 10^5-token fluid net instance exceeded %.1fs\n%!"
      net_scaling_time_budget_s;
    exit 1
  end;
  (* Sweep gates: warm starting may only save work, never change the
     answer. *)
  (match !sweep_iteration_gate_breached with
  | Some msg ->
      Printf.eprintf "error: daemon sweep: %s\n%!" msg;
      exit 1
  | None -> ());
  if !max_sweep_divergence > 1e-10 then begin
    Printf.eprintf
      "error: warm-started sweep throughputs diverge by %.3e from cold (tolerance 1e-10)\n%!"
      !max_sweep_divergence;
    exit 1
  end;
  (* Tandem exactness gates: the Krylov solve must agree with
     Gauss-Seidel where the cross-check runs, and every row — the
     million-state instance included — must converge as BiCGStab with a
     tight residual. *)
  if !max_tandem_divergence > tandem_divergence_tolerance then begin
    Printf.eprintf
      "error: tandem BiCGStab diverges from Gauss-Seidel by %.3e (tolerance %.1e)\n%!"
      !max_tandem_divergence tandem_divergence_tolerance;
    exit 1
  end;
  (match !tandem_gate_failure with
  | Some msg ->
      Printf.eprintf "error: tandem family: %s\n%!" msg;
      exit 1
  | None -> ());
  (* Memory gate: packed state keys and streamed CSR assembly must at
     least halve the 16-replica footprint against the PR 8 baseline.
     Monotone top-heap numbers only mean something on the full sweep,
     so smoke runs record but do not enforce. *)
  if (not smoke) && largest.peak_heap_words * 2 > pr8_peak_heap_words_at_16 then begin
    Printf.eprintf
      "error: peak heap at 16 replicas is %d words; required <= half of the %d-word PR 8 baseline\n%!"
      largest.peak_heap_words pr8_peak_heap_words_at_16;
    exit 1
  end
