module W = Choreographer.Workbench
module Render = Choreographer.Render

let requests = Obs.Metrics.counter "requests"
let request_errors = Obs.Metrics.counter "request_errors"

let stage_hits = Obs.Metrics.counter "cache_stage_hits"
(* One increment per stage served from a cache entry instead of being
   re-run — the counter the acceptance smoke test watches climb on a
   repeated solve. *)

(* Stage artefacts.  One constructor per cached stage output; the memo
   table maps a stage key (stage name + the normalised options that
   affect it) to one of these. *)
type art =
  | A_pepa_model of Pepa.Syntax.model
  | A_net_model of Pepanet.Net.t
  | A_document of Xml_kit.Minixml.t
  | A_pepa_compiled of Pepa.Compile.t * string list
  | A_net_compiled of Pepanet.Net_compile.t
  | A_pepa_space of Pepa.Statespace.t
  | A_net_space of Pepanet.Net_statespace.t
  | A_pepa_form of Fluid.Vector_form.t
  | A_net_form of Fluid.Net_form.t
  | A_pepa_solved of W.pepa_analysis * string  (** analysis + stderr diagnostics *)
  | A_net_solved of W.net_analysis * string
  | A_pepa_fluid_solved of W.fluid_analysis
  | A_net_fluid_solved of W.net_fluid_analysis
  | A_outcome of Choreographer.Pipeline.outcome * string

type entry = { lock : Mutex.t; mutable memo : (string * art) list }

type t = {
  cache : entry Cache.t;
  started : float;
  count_lock : Mutex.t;
  mutable request_count : int;
}

type outcome = {
  response : Protocol.response;
  tool : string;
  model_name : string;
  model_hash : string;
  option_pairs : (string * string) list;
  stages : (string * float) list;
  status : string;
  pipeline : Choreographer.Pipeline.outcome option;
}

exception Ingest_failure of string
(* An [Error msg] from {!Choreographer.Ingest}: the CLI prints [msg]
   bare (no "error: " prefix) and exits 1, so it needs its own path
   through the error contract. *)

let create ?cache_capacity () =
  {
    cache = Cache.create ?capacity:cache_capacity ();
    started = Unix.gettimeofday ();
    count_lock = Mutex.create ();
    request_count = 0;
  }

let with_lock m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let timed stages label f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  stages := (label, Unix.gettimeofday () -. t0) :: !stages;
  v

(* Look a stage up in the entry's memo, running [build] (timed, under
   the given stage label) on a miss.  A hit records no stage time —
   skipped work is exactly what the ledger's missing stages and the
   [cache_stage_hits] counter communicate. *)
let memo entry stages ~stage ~key ~project ~inject build =
  match Option.bind (List.assoc_opt key entry.memo) project with
  | Some v ->
      Obs.Metrics.incr stage_hits;
      v
  | None ->
      let v = timed stages stage build in
      entry.memo <- (key, inject v) :: List.remove_assoc key entry.memo;
      v

let opt_int = function None -> "-" | Some n -> string_of_int n

let solver_diagnostics () =
  match Markov.Steady.last_stats () with
  | Some stats -> Render.solver_stats_line stats
  | None -> ""

(* ------------------------------------------------------------------ *)
(* Cached stage pipelines                                              *)
(* ------------------------------------------------------------------ *)

let pepa_model entry stages ~name ~source =
  memo entry stages ~stage:"parse" ~key:"pepa-model"
    ~project:(function A_pepa_model m -> Some m | _ -> None)
    ~inject:(fun m -> A_pepa_model m)
    (fun () -> W.parse_pepa ~name source)

let net_model entry stages ~name ~source =
  memo entry stages ~stage:"parse" ~key:"net-model"
    ~project:(function A_net_model n -> Some n | _ -> None)
    ~inject:(fun n -> A_net_model n)
    (fun () -> W.parse_net ~name source)

let pepa_compiled entry stages ~name ~source =
  let model = pepa_model entry stages ~name ~source in
  memo entry stages ~stage:"compile" ~key:"pepa-compile"
    ~project:(function A_pepa_compiled (c, w) -> Some (c, w) | _ -> None)
    ~inject:(fun (c, w) -> A_pepa_compiled (c, w))
    (fun () -> W.compile_pepa ~name model)

let net_compiled entry stages ~name ~source =
  let net = net_model entry stages ~name ~source in
  memo entry stages ~stage:"compile" ~key:"net-compile"
    ~project:(function A_net_compiled c -> Some c | _ -> None)
    ~inject:(fun c -> A_net_compiled c)
    (fun () -> W.compile_net ~name net)

(* Exact solve of a cached PEPA model: derive (keyed by symmetry and
   the state cap), then solve (keyed by method and lumping). *)
let pepa_analysis entry stages ~name ~source ~(options : Protocol.options) =
  let compiled, warnings = pepa_compiled entry stages ~name ~source in
  let symmetry = Markov.Lump.symmetry_enabled options.Protocol.aggregate in
  let space =
    memo entry stages ~stage:"derive"
      ~key:
        (Printf.sprintf "pepa-space:sym=%b:max=%s" symmetry
           (opt_int options.Protocol.max_states))
      ~project:(function A_pepa_space s -> Some s | _ -> None)
      ~inject:(fun s -> A_pepa_space s)
      (fun () ->
        W.pepa_space ~name ?max_states:options.Protocol.max_states ~symmetry compiled)
  in
  let lump = Markov.Lump.lumping_enabled options.Protocol.aggregate in
  memo entry stages ~stage:"solve"
    ~key:
      (Printf.sprintf "pepa-solved:sym=%b:max=%s:method=%s:lump=%b" symmetry
         (opt_int options.Protocol.max_states)
         (Protocol.method_to_string options.Protocol.method_)
         lump)
    ~project:(function A_pepa_solved (a, d) -> Some (a, d) | _ -> None)
    ~inject:(fun (a, d) -> A_pepa_solved (a, d))
    (fun () ->
      let distribution =
        W.solve_pepa ~name ?method_:options.Protocol.method_ ~lump space
      in
      let diagnostics = solver_diagnostics () in
      let results = W.pepa_results ~name ~warnings space distribution in
      ({ W.space; distribution; results }, diagnostics))

let net_analysis entry stages ~name ~source ~(options : Protocol.options) =
  let compiled = net_compiled entry stages ~name ~source in
  let symmetry = Markov.Lump.symmetry_enabled options.Protocol.aggregate in
  let space =
    memo entry stages ~stage:"derive"
      ~key:
        (Printf.sprintf "net-space:sym=%b:max=%s" symmetry
           (opt_int options.Protocol.max_states))
      ~project:(function A_net_space s -> Some s | _ -> None)
      ~inject:(fun s -> A_net_space s)
      (fun () ->
        W.net_space ~name ?max_markings:options.Protocol.max_states ~symmetry compiled)
  in
  let lump = Markov.Lump.lumping_enabled options.Protocol.aggregate in
  memo entry stages ~stage:"solve"
    ~key:
      (Printf.sprintf "net-solved:sym=%b:max=%s:method=%s:lump=%b" symmetry
         (opt_int options.Protocol.max_states)
         (Protocol.method_to_string options.Protocol.method_)
         lump)
    ~project:(function A_net_solved (a, d) -> Some (a, d) | _ -> None)
    ~inject:(fun (a, d) -> A_net_solved (a, d))
    (fun () ->
      let net_distribution =
        W.solve_net ~name ?method_:options.Protocol.method_ ~lump space
      in
      let diagnostics = solver_diagnostics () in
      let net_results =
        W.net_results ~name
          ~warnings:(Pepanet.Net_compile.warnings compiled)
          space net_distribution
      in
      ({ W.net_space = space; net_distribution; net_results }, diagnostics))

let pepa_fluid_analysis entry stages ~name ~source ~tolerances =
  let compiled, warnings = pepa_compiled entry stages ~name ~source in
  let form =
    memo entry stages ~stage:"derive" ~key:"pepa-fluid-form"
      ~project:(function A_pepa_form f -> Some f | _ -> None)
      ~inject:(fun f -> A_pepa_form f)
      (fun () -> W.pepa_fluid_form ~name compiled)
  in
  memo entry stages ~stage:"integrate"
    ~key:(Printf.sprintf "pepa-fluid-solved:%s" (Protocol.fluid_to_string (Some tolerances)))
    ~project:(function A_pepa_fluid_solved a -> Some a | _ -> None)
    ~inject:(fun a -> A_pepa_fluid_solved a)
    (fun () ->
      let populations, fluid_stats = W.integrate_pepa_form ~tolerances form in
      let fluid_results = W.pepa_fluid_results ~name ~warnings form populations in
      { W.form; populations; fluid_stats; fluid_results })

let net_fluid_analysis entry stages ~name ~source ~tolerances =
  let compiled = net_compiled entry stages ~name ~source in
  let form =
    memo entry stages ~stage:"derive" ~key:"net-fluid-form"
      ~project:(function A_net_form f -> Some f | _ -> None)
      ~inject:(fun f -> A_net_form f)
      (fun () -> W.net_fluid_form ~name compiled)
  in
  memo entry stages ~stage:"integrate"
    ~key:(Printf.sprintf "net-fluid-solved:%s" (Protocol.fluid_to_string (Some tolerances)))
    ~project:(function A_net_fluid_solved a -> Some a | _ -> None)
    ~inject:(fun a -> A_net_fluid_solved a)
    (fun () ->
      let net_populations, net_fluid_stats = W.integrate_net_form ~tolerances form in
      let net_fluid_results =
        W.net_fluid_results ~name
          ~warnings:(Pepanet.Net_compile.warnings compiled)
          form net_populations
      in
      { W.net_form = form; net_populations; net_fluid_stats; net_fluid_results })

let ingested = function Ok v -> v | Error msg -> raise (Ingest_failure msg)

(* The rates file is read before the document, as the one-shot CLI
   always has, so a request with both malformed reports the rates. *)
let pipeline_outcome entry stages ~name ~source ~rates ~rates_name
    ~(options : Protocol.options) =
  let rates_book, rates_hash =
    match rates with
    | None -> (Uml.Rates_file.empty, "-")
    | Some src ->
        let name = Option.value rates_name ~default:"rates" in
        ( ingested (Choreographer.Ingest.rates_of_string ~name src),
          Digest.to_hex (Digest.string src) )
  in
  let doc =
    memo entry stages ~stage:"ingest" ~key:"document"
      ~project:(function A_document d -> Some d | _ -> None)
      ~inject:(fun d -> A_document d)
      (fun () -> ingested (Choreographer.Ingest.document_of_string ~name source))
  in
  memo entry stages ~stage:"pipeline"
    ~key:
      (Printf.sprintf "pipeline:restart=%s:method=%s:max=%s:agg=%s:fluid=%s:rates=%s"
         (match options.Protocol.restart with `Cycle -> "cycle" | `Absorb -> "absorb")
         (Protocol.method_to_string options.Protocol.method_)
         (opt_int options.Protocol.max_states)
         (Markov.Lump.mode_to_string options.Protocol.aggregate)
         (Protocol.fluid_to_string options.Protocol.fluid)
         rates_hash)
    ~project:(function A_outcome (o, d) -> Some (o, d) | _ -> None)
    ~inject:(fun (o, d) -> A_outcome (o, d))
    (fun () ->
      let pipeline_options =
        {
          Choreographer.Pipeline.rates = rates_book;
          restart = options.Protocol.restart;
          method_ = options.Protocol.method_;
          max_states = options.Protocol.max_states;
          aggregate = options.Protocol.aggregate;
          fluid = options.Protocol.fluid;
        }
      in
      let outcome = Choreographer.Pipeline.process_document ~options:pipeline_options doc in
      (outcome, solver_diagnostics ()))

(* ------------------------------------------------------------------ *)
(* Verbs                                                               *)
(* ------------------------------------------------------------------ *)

let option_pairs (options : Protocol.options) extra =
  [
    ("method", Protocol.method_to_string options.Protocol.method_);
    ("aggregate", Markov.Lump.mode_to_string options.Protocol.aggregate);
    ("fluid", Protocol.fluid_to_string options.Protocol.fluid);
  ]
  @ extra

let fresh_entry () = { lock = Mutex.create (); memo = [] }

let stats_json t =
  let hits, misses, evictions = Cache.counts t.cache in
  let num n = Obs.Json.Num (float_of_int n) in
  Obs.Json.Obj
    [
      ("uptime_s", Obs.Json.Num (Unix.gettimeofday () -. t.started));
      ("requests", num (with_lock t.count_lock (fun () -> t.request_count)));
      ( "cache",
        Obs.Json.Obj
          [
            ("entries", num (Cache.length t.cache));
            ("capacity", num (Cache.capacity t.cache));
            ("hits", num hits);
            ("misses", num misses);
            ("evictions", num evictions);
          ] );
    ]

let ok ?(output = "") ?(diagnostics = "") ?(data = Obs.Json.Null) () =
  Protocol.Ok_response { output; diagnostics; data }

let solve_response entry stages ~kind ~name ~source ~(options : Protocol.options) =
  match (kind, options.Protocol.fluid) with
  | Protocol.Pepa, None ->
      let analysis, diagnostics = pepa_analysis entry stages ~name ~source ~options in
      ok ~output:(Render.pepa_solve analysis) ~diagnostics ()
  | Protocol.Pepa, Some tolerances ->
      let analysis = pepa_fluid_analysis entry stages ~name ~source ~tolerances in
      ok
        ~output:(Render.pepa_fluid_solve analysis)
        ~diagnostics:(Render.fluid_stats_line analysis.W.fluid_stats)
        ()
  | Protocol.Net, None ->
      let analysis, diagnostics = net_analysis entry stages ~name ~source ~options in
      ok ~output:(Render.net_solve analysis) ~diagnostics ()
  | Protocol.Net, Some tolerances ->
      let analysis = net_fluid_analysis entry stages ~name ~source ~tolerances in
      ok
        ~output:(Render.net_fluid_solve analysis)
        ~diagnostics:(Render.fluid_stats_line analysis.W.net_fluid_stats)
        ()

(* Queries evaluate against the exact solve, as the CLI does; a fluid
   option on a query request is ignored. *)
let query_response entry stages ~kind ~name ~source ~query ~(options : Protocol.options) =
  let options = { options with Protocol.fluid = None } in
  let context =
    match kind with
    | Protocol.Pepa ->
        Choreographer.Query.context_of_pepa
          (fst (pepa_analysis entry stages ~name ~source ~options))
    | Protocol.Net ->
        Choreographer.Query.context_of_net (fst (net_analysis entry stages ~name ~source ~options))
  in
  let value = timed stages "query" (fun () -> Choreographer.Query.eval_string context query) in
  ok ~output:(Printf.sprintf "%.10g\n" value) ()

let handle t request =
  with_lock t.count_lock (fun () -> t.request_count <- t.request_count + 1);
  Obs.Metrics.incr requests;
  let stages = ref [] in
  let pipeline = ref None in
  (* Each model-bearing request hashes its source once: the digest goes
     to the ledger and, with the entry's tag and the request's name
     (which the rendered output prints), keys its cache entry. *)
  let model ~tag ~name source =
    let digest = Digest.string source in
    let locked work () =
      let entry, _ =
        Cache.find_or_create t.cache ~key:(String.concat ":" [ tag; name; digest ]) fresh_entry
      in
      with_lock entry.lock (fun () -> work entry)
    in
    (Digest.to_hex digest, locked)
  in
  let tool, model_name, model_hash, pairs, work =
    match request with
    | Protocol.Stats ->
        ("choreographerd stats", "-", "", [], fun () -> ok ~data:(stats_json t) ())
    | Protocol.Shutdown -> ("choreographerd shutdown", "-", "", [], fun () -> ok ())
    | Protocol.Solve { kind; name; source; options } ->
        let hash, locked = model ~tag:(Protocol.kind_to_string kind) ~name source in
        ( "choreographerd solve",
          name,
          hash,
          option_pairs options [ ("kind", Protocol.kind_to_string kind) ],
          locked (fun entry -> solve_response entry stages ~kind ~name ~source ~options) )
    | Protocol.Query { kind; name; source; query; options } ->
        let hash, locked = model ~tag:(Protocol.kind_to_string kind) ~name source in
        ( "choreographerd query",
          name,
          hash,
          option_pairs options
            [ ("kind", Protocol.kind_to_string kind); ("query", query) ],
          locked (fun entry -> query_response entry stages ~kind ~name ~source ~query ~options)
        )
    | Protocol.Pipeline { name; document = source; rates; rates_name; options; _ }
    | Protocol.Reflect { name; document = source; rates; rates_name; options } ->
        let tables, xmltable =
          match request with
          | Protocol.Pipeline { xmltable; _ } -> (true, xmltable)
          | _ -> (false, false)
        in
        let hash, locked = model ~tag:"doc" ~name source in
        let work entry =
          let outcome, diagnostics =
            pipeline_outcome entry stages ~name ~source ~rates ~rates_name ~options
          in
          pipeline := Some outcome;
          let results = outcome.Choreographer.Pipeline.results in
          let reflected =
            ( "reflected",
              Obs.Json.Str (Xml_kit.Minixml.to_string outcome.Choreographer.Pipeline.reflected)
            )
          in
          if tables then
            let xmltable =
              if not xmltable then []
              else
                let document =
                  Xml_kit.Minixml.Element
                    ("resultsets", [], List.map Choreographer.Results.to_xmltable results)
                in
                [ ("xmltable", Obs.Json.Str (Xml_kit.Minixml.to_string document)) ]
            in
            ok
              ~output:(String.concat "" (List.map Render.results results))
              ~diagnostics
              ~data:(Obs.Json.Obj (reflected :: xmltable))
              ()
          else ok ~diagnostics ~data:(Obs.Json.Obj [ reflected ]) ()
        in
        ( (if tables then "choreographerd pipeline" else "choreographerd reflect"),
          name,
          hash,
          option_pairs options
            [ ("absorb", string_of_bool (options.Protocol.restart = `Absorb)) ],
          locked work )
    | Protocol.Sweep { kind; name; source; options; axes; backend; warm_start } ->
        let hash, locked = model ~tag:(Protocol.kind_to_string kind) ~name source in
        let pairs =
          option_pairs options
            [
              ("kind", Protocol.kind_to_string kind);
              ("backend", Protocol.backend_to_string backend);
              ("warm_start", string_of_bool warm_start);
              ( "grid",
                string_of_int
                  (List.fold_left
                     (fun acc (a : Protocol.axis) -> acc * List.length a.Protocol.values)
                     1 axes) );
            ]
        in
        let work =
          if kind <> Protocol.Pepa then fun () ->
            Protocol.Error_response
              {
                code = Errors.analysis_failure_code;
                message = "error: sweep supports PEPA models (use kind pepa)\n";
              }
          else
            locked (fun entry ->
                let model = pepa_model entry stages ~name ~source in
                let result =
                  timed stages "sweep" (fun () ->
                      Sweep.run ~name ~model ~options ~axes ~backend ~warm_start)
                in
                ok ~data:(Sweep.to_json ~backend ~warm_start result) ())
        in
        ("choreographerd sweep", name, hash, pairs, work)
  in
  let finish response status =
    {
      response;
      tool;
      model_name;
      model_hash;
      option_pairs = pairs;
      stages = List.rev !stages;
      status;
      pipeline = !pipeline;
    }
  in
  match work () with
  | Protocol.Error_response _ as response ->
      Obs.Metrics.incr request_errors;
      finish response "request-error"
  | response -> finish response "ok"
  | exception Ingest_failure msg ->
      Obs.Metrics.incr request_errors;
      finish
        (Protocol.Error_response
           { code = Errors.model_error_code; message = msg ^ "\n" })
        ("error: " ^ msg)
  | exception exn -> (
      Obs.Metrics.incr request_errors;
      match Errors.of_exn exn with
      | Some r ->
          finish (Protocol.Error_response { code = r.code; message = r.message }) r.status
      | None ->
          finish
            (Protocol.Error_response
               {
                 code = 125;
                 message =
                   Printf.sprintf "error: internal failure: %s\n" (Printexc.to_string exn);
               })
            "internal-error")
