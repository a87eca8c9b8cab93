(* Traced mirrors of the two one-shot CLI ops.  Each calls the layers'
   public functions in the order [choreographer pipeline] and
   [pepa-workbench solve] call them, with a span around every call, and
   writes the CLI's output bytes so the benchmark can compare them with
   the real executable's.  Each runs in a fresh helper process with
   telemetry collection on, as the CLI's default ledger turns it on. *)

module W = Choreographer.Workbench
open Trace

let write path text = Out_channel.with_open_bin path (fun oc -> output_string oc text)

let ok_or_fail = function Ok v -> v | Error msg -> failwith msg

let solver_line () =
  match Markov.Steady.last_stats () with
  | Some stats -> Choreographer.Render.solver_stats_line stats
  | None -> ""

let counter name =
  match List.assoc_opt name (Obs.Metrics.snapshot ()).Obs.Metrics.counters with
  | Some v -> float_of_int v
  | None -> 0.0

(* The CLI's [Cli_support.setup]: collection on (the default ledger),
   one job. *)
let cli_setup () =
  Obs.Config.enable ();
  Par.set_jobs 1

(* [choreographer pipeline -i xmi -r rates -o out.xmi], run in [dir];
   stdout, stderr and the reflected document land in [dir]. *)
let pipeline ~xmi ~rates_path ~dir () =
  cli_setup ();
  Sys.chdir dir;
  let original = span "xml.parse" (fun () -> ok_or_fail (Choreographer.Ingest.document_of_file xmi)) in
  let rates = span "uml.rates" (fun () -> ok_or_fail (Choreographer.Ingest.rates_of_file (Some rates_path))) in
  let stripped = span "uml.strip" (fun () -> Uml.Poseidon.strip original) in
  let validated =
    span "uml.mdr" (fun () ->
        let repo = Uml.Mdr.create () in
        Uml.Mdr.import_xmi repo stripped;
        Uml.Mdr.export_xmi repo)
  in
  let activities, charts, interactions =
    span "uml.xmi_read" (fun () ->
        let activities = Uml.Xmi_read.activities_of_xml validated in
        let charts = Uml.Xmi_read.statecharts_of_xml validated in
        (activities, charts, Uml.Xmi_read.interactions_of_xml validated))
  in
  let markings = ref 0 and net_transitions = ref 0 in
  let activity diagram =
    let extraction =
      span "extract.activity" (fun () ->
          Extract.Ad_to_pepanet.extract ~rates ~restart:`Cycle ~interactions diagram)
    in
    let name = diagram.Uml.Activity.diagram_name in
    let net = extraction.Extract.Ad_to_pepanet.net in
    let compiled = span "pepanet.compile" (fun () -> W.compile_net ~name net) in
    let space = span "pepanet.derive" (fun () -> W.net_space ~name ~jobs:1 ~symmetry:false compiled) in
    markings := !markings + Pepanet.Net_statespace.n_markings space;
    net_transitions := !net_transitions + Pepanet.Net_statespace.n_transitions space;
    let distribution = span "markov.solve" (fun () -> W.solve_net ~name ~jobs:1 ~lump:false space) in
    let results =
      span "core.measures" (fun () ->
          W.net_results ~name ~warnings:(Pepanet.Net_compile.warnings compiled) space distribution)
    in
    let reflected =
      span "extract.reflect" (fun () ->
          Extract.Reflector.reflect_activity extraction
            ?approximation:results.Choreographer.Results.approximation
            ~throughputs:results.Choreographer.Results.throughputs diagram)
    in
    (reflected, results)
  in
  let activity_outcomes = List.map activity activities in
  let states = ref 0 in
  let chart_outcome =
    if charts = [] then None
    else begin
      let extraction = span "extract.statechart" (fun () -> Extract.Sc_to_pepa.extract ~rates charts) in
      let name = String.concat "+" (List.map (fun c -> c.Uml.Statechart.chart_name) charts) in
      let compiled, warnings =
        span "pepa.compile" (fun () -> W.compile_pepa ~name extraction.Extract.Sc_to_pepa.model)
      in
      let space = span "pepa.derive" (fun () -> W.pepa_space ~name ~jobs:1 ~symmetry:false compiled) in
      states := Pepa.Statespace.n_states space;
      let distribution = span "markov.solve" (fun () -> W.solve_pepa ~name ~jobs:1 ~lump:false space) in
      let probabilities, results =
        span "core.measures" (fun () ->
            let results = W.pepa_results ~name ~warnings space distribution in
            let analysis = { W.space; distribution; results } in
            let probabilities =
              List.concat_map
                (fun (_chart, leaf) -> W.local_probabilities analysis ~leaf)
                extraction.Extract.Sc_to_pepa.chart_leaf
            in
            (probabilities, { results with Choreographer.Results.state_probabilities = probabilities }))
      in
      let reflected =
        span "extract.reflect" (fun () ->
            Extract.Reflector.reflect_statecharts extraction
              ?approximation:results.Choreographer.Results.approximation ~probabilities charts)
      in
      Some (reflected, results)
    end
  in
  let rebuilt =
    span "uml.xmi_write" (fun () ->
        let model_name =
          match Xml_kit.Xpath_lite.select_one "//UML:Model" validated with
          | Some model -> Option.value ~default:"model" (Xml_kit.Minixml.attribute "name" model)
          | None -> "model"
        in
        Uml.Xmi_write.document_to_xml ~model_name ~interactions
          (List.map fst activity_outcomes)
          (match chart_outcome with Some (cs, _) -> cs | None -> []))
  in
  let reflected = span "uml.merge" (fun () -> Uml.Poseidon.merge ~original ~reflected:rebuilt ()) in
  write "stderr.txt" (solver_line ());
  span "xml.print" (fun () -> Xml_kit.Minixml.write_file "out.xmi" reflected);
  let results =
    List.map snd activity_outcomes @ match chart_outcome with Some (_, r) -> [ r ] | None -> []
  in
  let text =
    span "core.render" (fun () -> String.concat "" (List.map Choreographer.Render.results results))
  in
  write "stdout.txt" (text ^ "reflected model written to out.xmi\n");
  [
    ("pepanet.markings", float_of_int !markings);
    ("pepanet.transitions", float_of_int !net_transitions);
    ("pepa.states", float_of_int !states);
  ]

(* Bytes one BiCGStab sweep moves, computed from the kernel's loops in
   [Markov.Krylov]: two preconditioner solves and two products, each a
   pass over the transposed generator (8-byte value and column per
   stored entry, 8-byte row pointer, source and destination vectors),
   plus 27 vector reads and writes of 8 bytes per state in the updates,
   dots and norms. *)
let bytes_per_sweep ~n ~nnz =
  let matrix_pass = (16 * nnz) + (8 * (n + 1)) + (16 * n) in
  float_of_int ((4 * matrix_pass) + (27 * 8 * n))

(* [pepa-workbench solve path --method bicgstab], run in [dir]. *)
let solve ~path ~dir () =
  cli_setup ();
  Sys.chdir dir;
  let name = Filename.basename path in
  let model = span "pepa.parse" (fun () -> Pepa.Parser.model_of_file path) in
  let compiled, warnings = span "pepa.compile" (fun () -> W.compile_pepa ~name model) in
  let collisions0 = counter "intern_collisions" in
  let space = span "pepa.derive" (fun () -> W.pepa_space ~name ~jobs:1 ~symmetry:false compiled) in
  let collisions = counter "intern_collisions" -. collisions0 in
  (* The CSR generator and the transpose the Krylov solve reads; both
     are memoised on the chain, so the solve below reuses them. *)
  let chain =
    span "markov.assemble" (fun () ->
        let c = Pepa.Statespace.ctmc space in
        ignore (Markov.Ctmc.generator_transposed c);
        c)
  in
  let distribution =
    span "markov.solve" (fun () ->
        W.solve_pepa ~name ~method_:Markov.Steady.Bicgstab ~jobs:1 ~lump:false space)
  in
  let results = span "core.measures" (fun () -> W.pepa_results ~name ~warnings space distribution) in
  let text = span "core.render" (fun () -> Choreographer.Render.pepa_solve { W.space; distribution; results }) in
  write "stdout.txt" text;
  write "stderr.txt" (solver_line ());
  let n = Pepa.Statespace.n_states space in
  let nnz = Markov.Sparse.nnz (Markov.Ctmc.generator_transposed chain) in
  let iterations =
    match Markov.Steady.last_stats () with Some s -> s.Markov.Steady.iterations | None -> 0
  in
  [
    ("pepa.states", float_of_int n);
    ("pepa.transitions", float_of_int (Pepa.Statespace.n_transitions space));
    ("pepa.intern_collisions", collisions);
    ("markov.nnz", float_of_int nnz);
    ("markov.iterations", float_of_int iterations);
    ("markov.bytes_per_sweep", bytes_per_sweep ~n ~nnz);
  ]
