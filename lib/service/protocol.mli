(** The daemon's request/response vocabulary and its JSON codec.

    One frame (see {!Frame}) carries one JSON document.  A connection
    is a synchronous sequence of request/response pairs; the analysis
    verbs ship the model {e source} (not a path), so the daemon never
    reads the client's filesystem and the content hash it caches under
    is computed over exactly what was analysed. *)

type model_kind = Pepa | Net

type options = {
  method_ : Markov.Steady.method_ option;  (** [None] = auto *)
  aggregate : Markov.Lump.mode;
  fluid : Fluid.Rk45.tolerances option;  (** [Some _] switches the solve verbs
                                             to the ODE approximation *)
  max_states : int option;
  restart : [ `Cycle | `Absorb ];  (** pipeline/reflect extraction policy *)
}

val default_options : options
(** The one-shot CLI defaults: auto method, no aggregation, exact
    solve, unlimited states, cycling restart. *)

type axis = {
  target : [ `Rate of string | `Replicas of string ];
      (** which knob the axis turns: a rate constant redefined to each
          value, or a component array's replica count *)
  values : float list;  (** replica counts are rounded to integers *)
}

type backend = Exact | Lump | Fluid_ode
(** How {!Sweep} solves each grid point: the full chain, the lumped
    quotient chain, or the fluid ODE approximation. *)

type request =
  | Solve of { kind : model_kind; name : string; source : string; options : options }
  | Pipeline of {
      name : string;
          (** the document's path as the user gave it: it labels XML and
              text-notation errors, and a text document's model is named
              after its basename without extension *)
      document : string;  (** XMI or plain-text notation, sniffed as the CLI does *)
      rates : string option;  (** rates-file source, not a path *)
      rates_name : string option;  (** labels rates-file errors; [None] is ["rates"] *)
      options : options;
      xmltable : bool;
          (** render the results' .xmltable document into the response
              (field ["xmltable"]); a request without the field gets it *)
    }
  | Query of {
      kind : model_kind;
      name : string;
      source : string;
      query : string;
      options : options;
    }
  | Reflect of {
      name : string;
      document : string;
      rates : string option;
      rates_name : string option;
      options : options;
    }  (** as [Pipeline], answered with the reflected document only *)
  | Sweep of {
      kind : model_kind;
      name : string;
      source : string;
      options : options;
      axes : axis list;  (** the grid is the cartesian product, row-major *)
      backend : backend;
      warm_start : bool;  (** reuse each point's solution to start the next *)
    }
  | Stats
  | Shutdown

type response =
  | Ok_response of {
      output : string;  (** the bytes the one-shot CLI writes to stdout *)
      diagnostics : string;  (** stderr diagnostics (solver/fluid stats lines) *)
      data : Obs.Json.t;  (** structured payload (sweep grid, stats, reflected
                              XMI); [Null] when the verb has none *)
    }
  | Error_response of {
      code : int;  (** the one-shot CLI exit code: 1 model error, 2 analysis *)
      message : string;  (** the bytes the CLI writes to stderr, hints included *)
    }

exception Protocol_error of string
(** Raised by the decoders on JSON that is well-formed but not a valid
    request/response (unknown verb, missing field, bad option value,
    a [max_states] that is not an integer in [[0, 2^53]]).  Unknown
    option fields are ignored, so an older client's [jobs] is
    accepted. *)

(** {1 Option values}

    The one parser and printer of each option value, shared by the
    CLIs' converters and {!request_of_json}.  Parsers return the
    CLI's error message, valid choices included; every printer's
    output parses back to the same value. *)

val method_to_string : Markov.Steady.method_ option -> string
val method_of_string : string -> (Markov.Steady.method_ option, string) result
(** ["auto"], ["direct"], ["gauss-seidel"]/["gs"], ["sor"]/["sor:OMEGA"],
    ["power"], ["bicgstab"] — the [--method] grammar. *)

val aggregate_of_string : string -> (Markov.Lump.mode, string) result
(** The [--aggregate] grammar; {!Markov.Lump.mode_to_string} prints. *)

val tolerances_to_string : Fluid.Rk45.tolerances -> string
val tolerances_of_string : string -> (Fluid.Rk45.tolerances, string) result
(** ["RTOL"] or ["RTOL,ATOL"], both positive — the [--fluid] grammar. *)

val fluid_to_string : Fluid.Rk45.tolerances option -> string
(** ["off"] or ["RTOL,ATOL"] — the wire form, also used in cache keys
    and ledger records. *)

val kind_to_string : model_kind -> string
val backend_to_string : backend -> string

val request_to_json : request -> Obs.Json.t
val request_of_json : Obs.Json.t -> request
val response_to_json : response -> Obs.Json.t
val response_of_json : Obs.Json.t -> response
