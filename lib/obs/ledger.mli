(** The run ledger: a flight recorder for whole invocations.

    Every pipeline / solve / bench run can append one schema-versioned
    JSON record — model content hash, effective options, per-stage span
    timings, final metric values, GC peak, exit status — to an append-only
    JSON-lines file (default [~/.choreographer/runs.jsonl], overridable
    with [--ledger PATH] or the [CHOREOGRAPHER_LEDGER] environment
    variable).  The [choreographer obs] subcommand reads it back:
    [list], [show], [diff A B] and [regress] turn isolated runs into a
    performance trajectory the user (and CI) can interrogate. *)

val schema_version : int
(** Version written into every record; {!of_json} refuses others. *)

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
(** Raised by {!of_json} and {!load} on malformed or unsupported
    records (including a schema version this build does not read). *)

val capture :
  tool:string ->
  model:string ->
  model_hash:string ->
  options:(string * string) list ->
  exit_status:string ->
  unit ->
  record
(** Snapshot the current telemetry state into a record: per-stage
    timings are the span durations summed by span name, metrics come
    from {!Metrics.snapshot}, the GC figures from [Gc.quick_stat].
    Requires collection to have been on during the run for the stages
    and metrics to be non-empty. *)

val make :
  tool:string ->
  model:string ->
  model_hash:string ->
  options:(string * string) list ->
  stages:(string * float) list ->
  ?counters:(string * int) list ->
  ?gauges:(string * float) list ->
  exit_status:string ->
  unit ->
  record
(** Build a record from {e explicitly} measured stage timings and
    (optionally) scoped metrics, instead of the process-global span
    state {!capture} sums.  This is the per-request path for
    long-running processes: a daemon serving many requests cannot rely
    on [at_exit] (which fires once, at shutdown) or on the global span
    list (which interleaves concurrent requests), so each handler
    times its own stages and emits one record per request.  Timestamp,
    GC figures and [wall_s] are still read from the live process. *)

val emit_now :
  path:string ->
  tool:string ->
  model:string ->
  model_hash:string ->
  options:(string * string) list ->
  stages:(string * float) list ->
  ?counters:(string * int) list ->
  ?gauges:(string * float) list ->
  exit_status:string ->
  unit ->
  unit
(** [make] followed by {!append} — one immediate, self-contained ledger
    write (one [write] syscall, so concurrent emitters interleave at
    record granularity).  The one-shot CLIs keep their [at_exit]
    {!capture} behaviour; the daemon calls this once per request. *)

val to_json : record -> Json.t
val of_json : Json.t -> record
(** Round-trip partners; {!of_json} tolerates missing optional fields
    but raises {!Format_error} on a wrong schema or mistyped field. *)

val default_path : unit -> string
(** [$CHOREOGRAPHER_LEDGER] if set, else [~/.choreographer/runs.jsonl]. *)

val append : path:string -> record -> unit
(** Append one record as a single JSON line, creating the parent
    directory if needed. *)

val load : path:string -> record list
(** All records in file order; a missing file is an empty ledger.
    Raises {!Format_error} on malformed lines. *)

(** {1 Diffing two runs} *)

type stage_delta = {
  stage : string;
  a_s : float option;  (** [None] when the stage is missing from run A *)
  b_s : float option;
  delta_s : float option;  (** only when present on both sides *)
  pct : float option;  (** percent change relative to A, when A > 0 *)
}

val diff_stages : record -> record -> stage_delta list
(** Per-stage timing comparison over the union of stage names (A's
    order first), with absolute and percent deltas where both sides
    ran the stage. *)

type metric_delta = { metric : string; a_v : float option; b_v : float option }

val diff_metrics : record -> record -> metric_delta list
(** Counters and gauges (as floats) that differ between the runs;
    identical values are omitted. *)

(** {1 Regression detection} *)

type regression = {
  r_stage : string;
  latest_s : float;
  median_s : float;
  ratio : float;  (** latest / median *)
  r_memory : bool;  (** the quantity is heap words, not seconds *)
}

val regress : ?threshold:float -> history:record list -> record -> regression list
(** Stages of [latest] that ran more than [threshold] (default 1.25,
    i.e. 25% slower) times their median duration over [history].
    Stages with no history are skipped.  The same contract covers
    memory: when the latest run's [gc_peak_heap_words] exceeds
    [threshold] times its median over the history, a synthetic
    ["peak_heap_words"] entry with [r_memory = true] is appended
    (records predating the field parse as 0 and drop out of the
    median).  Raises [Invalid_argument] on a non-positive
    threshold. *)
