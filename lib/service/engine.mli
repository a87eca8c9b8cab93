(** The analysis engine behind every analysis verb: executes protocol
    requests against a content-hash model cache.  The daemon serves
    its clients' requests with one; [pepa-workbench solve|query] and
    [choreographer pipeline] create one in process and answer their
    own request with it, so a one-shot run and a daemon reply render
    the same bytes by construction.

    Models are cached under their kind, their name (which the rendered
    output prints) and the MD5 of their source, and each cache entry
    holds the compiled artefact of every stage already run for it —
    parsed AST, compiled component tree, derived state space, solved
    analysis — keyed by the normalised options that affect that stage.
    A repeated request re-runs nothing; a request that changes only
    the solve method reuses the derived state space; a source or name
    change misses the cache entirely.

    Every request runs on the domain that calls {!handle}.  Requests
    for the same model serialise on the entry's lock; requests for
    distinct models run concurrently. *)

type t

val create : ?cache_capacity:int -> unit -> t

type outcome = {
  response : Protocol.response;
  tool : string;  (** e.g. ["choreographerd solve"], for the ledger *)
  model_name : string;
  model_hash : string;  (** MD5 of the analysed source; [""] for stats/shutdown *)
  option_pairs : (string * string) list;  (** normalised, ledger-ready *)
  stages : (string * float) list;
      (** wall seconds of each stage this request actually ran, in
          execution order; stages served from cache are absent (and
          counted on the ["cache_stage_hits"] metric) *)
  status : string;  (** ["ok"] or the error status, ledger-ready *)
  pipeline : Choreographer.Pipeline.outcome option;
      (** the typed outcome behind a [Pipeline] or [Reflect] response,
          for in-process callers that render more of it (the HTML
          report) *)
}

val option_pairs : Protocol.options -> (string * string) list -> (string * string) list
(** [method], [aggregate] and [fluid] in their normalised forms, then
    the verb's own pairs: the options as ledger records list them. *)

val handle : t -> Protocol.request -> outcome
(** Execute one request.  Never raises on analysis failures — they
    come back as {!Protocol.Error_response} with the one-shot CLI's
    exit code and stderr bytes ({!Errors}); unexpected exceptions are
    reported with code 125.  [Shutdown] is acknowledged with an empty
    ok response; actually stopping is the server's business. *)

val stats_json : t -> Obs.Json.t
(** The [stats] verb payload: uptime, request count, cache occupancy
    and lifetime hit/miss/eviction counts. *)
