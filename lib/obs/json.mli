(** A minimal JSON tree: just enough for the telemetry sinks (Chrome
    trace export, metrics dumps, JSON-lines events) and their tests,
    with no dependency on the XML kit or any third-party parser. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val to_string : ?pretty:bool -> t -> string
(** Serialise.  Non-finite numbers (which JSON cannot represent) are
    written as [null].  With [~pretty:true] the output is indented. *)

exception Parse_error of string

val of_string : string -> t
(** Parse a complete JSON document; raises {!Parse_error} on malformed
    input, trailing garbage, or arrays and objects nested more than 512
    deep.  Together with {!to_string} this gives the round-trip property
    the sink tests rely on. *)

val member : string -> t -> t option
(** [member key (Obj _)] looks up a field; [None] on other nodes. *)

val to_float : t -> float option
(** Numeric value of a [Num]; [None] otherwise. *)

val to_list : t -> t list
(** Elements of an [Arr]; [[]] otherwise. *)
