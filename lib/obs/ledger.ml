(* The run ledger: one schema-versioned JSON record per pipeline /
   solve / bench invocation, appended as a line of JSON so the file is
   greppable, mergeable and safe to append to concurrently (a record is
   one [write]).  The ledger is what turns individual runs into a
   trajectory: [diff] compares two records stage by stage, [regress]
   flags stages that drifted above the ledger median — the offline
   precursor of a CI perf gate. *)

let schema_version = 1

type record = {
  schema : int;
  timestamp : float;  (** wall clock, seconds since the epoch *)
  tool : string;  (** e.g. ["choreographer pipeline"] *)
  model : string;  (** input path, or ["-"] when not file-based *)
  model_hash : string;  (** MD5 of the model content, [""] if unknown *)
  options : (string * string) list;  (** method, aggregate, fluid, ... *)
  stages : (string * float) list;  (** span name -> total seconds *)
  counters : (string * int) list;
  gauges : (string * float) list;
  gc_minor : int;
  gc_major : int;
  gc_peak_heap_words : int;
  wall_s : float;  (** total process age at capture *)
  exit_status : string;  (** ["ok"] or an error summary *)
}

exception Format_error of string

(* ---------------------------------------------------------------- *)
(* Capture                                                           *)
(* ---------------------------------------------------------------- *)

(* Stage timings: total seconds per span name.  Summing repeated spans
   (e.g. one [steady.solve] per diagram) keeps the record's size
   bounded by the span taxonomy, not the run length, and makes diffs
   line up across runs that repeat stages different numbers of times. *)
let stage_totals spans =
  let totals : (string, float) Hashtbl.t = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun (c : Span.completed) ->
      match Hashtbl.find_opt totals c.Span.name with
      | Some t -> Hashtbl.replace totals c.Span.name (t +. c.Span.duration_s)
      | None ->
          Hashtbl.add totals c.Span.name c.Span.duration_s;
          order := c.Span.name :: !order)
    spans;
  List.rev_map (fun name -> (name, Hashtbl.find totals name)) !order

let capture ~tool ~model ~model_hash ~options ~exit_status () =
  let gc = Gc.quick_stat () in
  let m = Metrics.snapshot () in
  {
    schema = schema_version;
    timestamp = Clock.wall_now ();
    tool;
    model;
    model_hash;
    options;
    stages = stage_totals (Span.completed_spans ());
    counters = m.Metrics.counters;
    gauges = m.Metrics.gauges;
    gc_minor = gc.Gc.minor_collections;
    gc_major = gc.Gc.major_collections;
    (* Before the first major slice [top_heap_words] reads 0; the live
       heap is a lower bound on the peak. *)
    gc_peak_heap_words = max gc.Gc.top_heap_words gc.Gc.heap_words;
    wall_s = Clock.since_origin ();
    exit_status;
  }

(* Explicit record construction for long-running processes: one record
   per daemon request, stages timed by the request handler itself (the
   global span list interleaves concurrent requests and [at_exit] only
   fires at shutdown). *)
let make ~tool ~model ~model_hash ~options ~stages ?(counters = []) ?(gauges = [])
    ~exit_status () =
  let gc = Gc.quick_stat () in
  {
    schema = schema_version;
    timestamp = Clock.wall_now ();
    tool;
    model;
    model_hash;
    options;
    stages;
    counters;
    gauges;
    gc_minor = gc.Gc.minor_collections;
    gc_major = gc.Gc.major_collections;
    gc_peak_heap_words = max gc.Gc.top_heap_words gc.Gc.heap_words;
    wall_s = Clock.since_origin ();
    exit_status;
  }

(* ---------------------------------------------------------------- *)
(* JSON round trip                                                   *)
(* ---------------------------------------------------------------- *)

let to_json r =
  Json.Obj
    [
      ("schema", Json.Num (float_of_int r.schema));
      ("timestamp", Json.Num r.timestamp);
      ("tool", Json.Str r.tool);
      ("model", Json.Str r.model);
      ("model_hash", Json.Str r.model_hash);
      ("options", Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) r.options));
      ("stages", Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) r.stages));
      ( "counters",
        Json.Obj (List.map (fun (k, v) -> (k, Json.Num (float_of_int v))) r.counters) );
      ("gauges", Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) r.gauges));
      ( "gc",
        Json.Obj
          [
            ("minor_collections", Json.Num (float_of_int r.gc_minor));
            ("major_collections", Json.Num (float_of_int r.gc_major));
            ("peak_heap_words", Json.Num (float_of_int r.gc_peak_heap_words));
          ] );
      ("wall_s", Json.Num r.wall_s);
      ("exit", Json.Str r.exit_status);
    ]

let fail fmt = Printf.ksprintf (fun m -> raise (Format_error m)) fmt

let obj_fields = function Json.Obj fields -> fields | _ -> []

let str_field ?(default = None) name j =
  match Json.member name j with
  | Some (Json.Str s) -> s
  | Some _ -> fail "ledger field %S is not a string" name
  | None -> ( match default with Some d -> d | None -> fail "ledger record lacks %S" name)

let num_field ?default name j =
  match Json.member name j with
  | Some (Json.Num v) -> v
  | Some _ -> fail "ledger field %S is not a number" name
  | None -> ( match default with Some d -> d | None -> fail "ledger record lacks %S" name)

let of_json j =
  let schema = int_of_float (num_field "schema" j) in
  if schema <> schema_version then
    fail "unsupported ledger schema %d (this build reads %d)" schema schema_version;
  let num_assoc name =
    List.map
      (fun (k, v) ->
        match v with
        | Json.Num x -> (k, x)
        | _ -> fail "ledger %s entry %S is not a number" name k)
      (obj_fields (Option.value ~default:(Json.Obj []) (Json.member name j)))
  in
  let gc = Option.value ~default:(Json.Obj []) (Json.member "gc" j) in
  {
    schema;
    timestamp = num_field "timestamp" j;
    tool = str_field "tool" j;
    model = str_field ~default:(Some "-") "model" j;
    model_hash = str_field ~default:(Some "") "model_hash" j;
    options =
      List.map
        (fun (k, v) ->
          match v with
          | Json.Str s -> (k, s)
          | _ -> fail "ledger option %S is not a string" k)
        (obj_fields (Option.value ~default:(Json.Obj []) (Json.member "options" j)));
    stages = num_assoc "stages";
    counters = List.map (fun (k, v) -> (k, int_of_float v)) (num_assoc "counters");
    gauges = num_assoc "gauges";
    gc_minor = int_of_float (num_field ~default:0.0 "minor_collections" gc);
    gc_major = int_of_float (num_field ~default:0.0 "major_collections" gc);
    gc_peak_heap_words = int_of_float (num_field ~default:0.0 "peak_heap_words" gc);
    wall_s = num_field ~default:0.0 "wall_s" j;
    exit_status = str_field ~default:(Some "ok") "exit" j;
  }

(* ---------------------------------------------------------------- *)
(* Persistence                                                       *)
(* ---------------------------------------------------------------- *)

let default_path () =
  match Sys.getenv_opt "CHOREOGRAPHER_LEDGER" with
  | Some p when p <> "" -> p
  | _ ->
      let home = Option.value ~default:"." (Sys.getenv_opt "HOME") in
      Filename.concat (Filename.concat home ".choreographer") "runs.jsonl"

let rec mkdir_p dir =
  if dir <> "" && dir <> "/" && dir <> "." && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let append ~path record =
  mkdir_p (Filename.dirname path);
  let oc = open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc (Json.to_string (to_json record));
      output_char oc '\n')

let emit_now ~path ~tool ~model ~model_hash ~options ~stages ?counters ?gauges
    ~exit_status () =
  append ~path
    (make ~tool ~model ~model_hash ~options ~stages ?counters ?gauges ~exit_status ())

let load ~path =
  if not (Sys.file_exists path) then []
  else
    In_channel.with_open_bin path (fun ic ->
        let rec go acc =
          match In_channel.input_line ic with
          | None -> List.rev acc
          | Some line when String.trim line = "" -> go acc
          | Some line -> (
              match of_json (Json.of_string line) with
              | r -> go (r :: acc)
              | exception Json.Parse_error m -> fail "%s: malformed ledger line: %s" path m)
        in
        go [])

(* ---------------------------------------------------------------- *)
(* Diffing                                                           *)
(* ---------------------------------------------------------------- *)

type stage_delta = {
  stage : string;
  a_s : float option;  (** [None] when the stage is missing from run A *)
  b_s : float option;
  delta_s : float option;  (** only when present on both sides *)
  pct : float option;  (** percent change relative to A, when A > 0 *)
}

(* Union of stage names, A's order first so diffs read like A's span
   tree with B's additions at the bottom. *)
let merged_names a b =
  let names = List.map fst a in
  names @ List.filter (fun n -> not (List.mem n names)) (List.map fst b)

let diff_stages a b =
  List.map
    (fun stage ->
      let a_s = List.assoc_opt stage a.stages in
      let b_s = List.assoc_opt stage b.stages in
      let delta_s = match (a_s, b_s) with Some x, Some y -> Some (y -. x) | _ -> None in
      let pct =
        match (a_s, b_s) with
        | Some x, Some y when x > 0.0 -> Some (100.0 *. (y -. x) /. x)
        | _ -> None
      in
      { stage; a_s; b_s; delta_s; pct })
    (merged_names a.stages b.stages)

type metric_delta = { metric : string; a_v : float option; b_v : float option }

let diff_metrics a b =
  let floats r =
    List.map (fun (k, v) -> (k, float_of_int v)) r.counters @ r.gauges
  in
  let fa = floats a and fb = floats b in
  List.filter_map
    (fun metric ->
      let a_v = List.assoc_opt metric fa and b_v = List.assoc_opt metric fb in
      if a_v = b_v then None else Some { metric; a_v; b_v })
    (merged_names fa fb)

(* ---------------------------------------------------------------- *)
(* Regression detection                                              *)
(* ---------------------------------------------------------------- *)

type regression = {
  r_stage : string;
  latest_s : float;
  median_s : float;
  ratio : float;  (** latest / median *)
  r_memory : bool;  (** the quantity is heap words, not seconds *)
}

let median sorted =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else if n mod 2 = 1 then sorted.(n / 2)
  else 0.5 *. (sorted.((n / 2) - 1) +. sorted.(n / 2))

(* Compare [latest] against the per-stage median over [history]
   (records whose options/model need not match — callers filter).
   A stage regresses when it runs [threshold] times slower than its
   median; stages absent from the history are skipped, so a new stage
   never trips the gate on its first appearance. *)
let regress ?(threshold = 1.25) ~history latest =
  if threshold <= 0.0 then invalid_arg "Ledger.regress: threshold must be positive";
  let stage_regressions =
    List.filter_map
      (fun (stage, latest_s) ->
        let past =
          List.filter_map (fun r -> List.assoc_opt stage r.stages) history
          |> Array.of_list
        in
        if Array.length past = 0 then None
        else begin
          Array.sort compare past;
          let med = median past in
          if med > 0.0 && latest_s > med *. threshold then
            Some
              { r_stage = stage; latest_s; median_s = med; ratio = latest_s /. med; r_memory = false }
          else None
        end)
      latest.stages
  in
  (* Memory regresses under the same contract as time: the latest run's
     peak heap against its median over the history.  Records written
     before the field existed parse as 0 and drop out of the median, so
     an old ledger never trips the gate spuriously. *)
  let memory_regression =
    let past =
      List.filter_map
        (fun r ->
          if r.gc_peak_heap_words > 0 then Some (float_of_int r.gc_peak_heap_words)
          else None)
        history
      |> Array.of_list
    in
    if Array.length past = 0 || latest.gc_peak_heap_words <= 0 then []
    else begin
      Array.sort compare past;
      let med = median past in
      let latest_w = float_of_int latest.gc_peak_heap_words in
      if med > 0.0 && latest_w > med *. threshold then
        [
          {
            r_stage = "peak_heap_words";
            latest_s = latest_w;
            median_s = med;
            ratio = latest_w /. med;
            r_memory = true;
          };
        ]
      else []
    end
  in
  stage_regressions @ memory_regression
