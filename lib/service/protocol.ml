type model_kind = Pepa | Net

type options = {
  method_ : Markov.Steady.method_ option;
  aggregate : Markov.Lump.mode;
  fluid : Fluid.Rk45.tolerances option;
  max_states : int option;
  restart : [ `Cycle | `Absorb ];
}

let default_options =
  {
    method_ = None;
    aggregate = Markov.Lump.No_agg;
    fluid = None;
    max_states = None;
    restart = `Cycle;
  }

type axis = { target : [ `Rate of string | `Replicas of string ]; values : float list }
type backend = Exact | Lump | Fluid_ode

type request =
  | Solve of { kind : model_kind; name : string; source : string; options : options }
  | Pipeline of {
      name : string;
      document : string;
      rates : string option;
      rates_name : string option;
      options : options;
      xmltable : bool;
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
    }
  | Sweep of {
      kind : model_kind;
      name : string;
      source : string;
      options : options;
      axes : axis list;
      backend : backend;
      warm_start : bool;
    }
  | Stats
  | Shutdown

type response =
  | Ok_response of { output : string; diagnostics : string; data : Obs.Json.t }
  | Error_response of { code : int; message : string }

exception Protocol_error of string

let fail fmt = Printf.ksprintf (fun msg -> raise (Protocol_error msg)) fmt

(* ------------------------------------------------------------------ *)
(* JSON field access                                                   *)
(* ------------------------------------------------------------------ *)

open Obs.Json

let str_field name json =
  match member name json with
  | Some (Str s) -> s
  | Some _ -> fail "field %s is not a string" name
  | None -> fail "missing field %s" name

let opt_str_field name json =
  match member name json with
  | Some (Str s) -> Some s
  | Some Null | None -> None
  | Some _ -> fail "field %s is not a string" name

let num_field name json =
  match member name json with
  | Some (Num v) -> v
  | Some _ -> fail "field %s is not a number" name
  | None -> fail "missing field %s" name

let bool_field ~default name json =
  match member name json with
  | Some (Bool b) -> b
  | None -> default
  | Some _ -> fail "field %s is not a boolean" name

(* ------------------------------------------------------------------ *)
(* Option values: the one parser and printer of each, shared with the  *)
(* CLI's converters                                                    *)
(* ------------------------------------------------------------------ *)

(* The shortest of %.15g/%.16g/%.17g that reads back as [f], so every
   printed option value parses back to exactly the value printed and
   distinct values never share a cache key.  Usual tolerances and
   relaxation factors print as under %g. *)
let float_to_string f =
  let s = Printf.sprintf "%.15g" f in
  if float_of_string s = f then s
  else
    let s = Printf.sprintf "%.16g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f

let method_to_string = function
  | None -> "auto"
  | Some Markov.Steady.Direct -> "direct"
  | Some Markov.Steady.Gauss_seidel -> "gauss-seidel"
  | Some Markov.Steady.Power -> "power"
  | Some Markov.Steady.Bicgstab -> "bicgstab"
  | Some (Markov.Steady.Sor w) -> "sor:" ^ float_to_string w

let method_of_string = function
  | "auto" -> Ok None
  | "direct" -> Ok (Some Markov.Steady.Direct)
  | "gauss-seidel" | "gs" -> Ok (Some Markov.Steady.Gauss_seidel)
  | "power" -> Ok (Some Markov.Steady.Power)
  | "bicgstab" -> Ok (Some Markov.Steady.Bicgstab)
  | other -> (
      (* "sor" or "sor:<omega>", omega in (0, 2); plain "sor" uses a
         mild over-relaxation. *)
      match String.split_on_char ':' other with
      | [ "sor" ] -> Ok (Some (Markov.Steady.Sor 1.2))
      | [ "sor"; omega ] -> (
          match float_of_string_opt omega with
          | Some w when w > 0.0 && w < 2.0 -> Ok (Some (Markov.Steady.Sor w))
          | Some _ | None -> Error (Printf.sprintf "SOR relaxation %s outside (0, 2)" omega))
      | _ ->
          Error
            (Printf.sprintf
               "unknown method %s (valid: auto, direct, gauss-seidel, sor[:omega], power, \
                bicgstab)"
               other))

let aggregate_of_string s =
  match Markov.Lump.mode_of_string s with
  | Some m -> Ok m
  | None ->
      Error (Printf.sprintf "unknown aggregation mode %s (valid: none, symmetry, lump, both)" s)

let tolerances_to_string t =
  float_to_string t.Fluid.Rk45.rtol ^ "," ^ float_to_string t.Fluid.Rk45.atol

let tolerances_of_string s =
  let positive v = match float_of_string_opt v with Some f when f > 0.0 -> Some f | _ -> None in
  let parsed =
    match String.split_on_char ',' s with
    | [ rtol ] ->
        Option.map
          (fun r -> { Fluid.Rk45.default_tolerances with Fluid.Rk45.rtol = r })
          (positive rtol)
    | [ rtol; atol ] -> (
        match (positive rtol, positive atol) with
        | Some r, Some a -> Some { Fluid.Rk45.rtol = r; atol = a }
        | _ -> None)
    | _ -> None
  in
  Option.to_result parsed
    ~none:
      (Printf.sprintf
         "invalid fluid tolerances %s (valid: RTOL or RTOL,ATOL with both positive, e.g. \
          1e-8 or 1e-8,1e-12)"
         s)

let fluid_to_string = function None -> "off" | Some t -> tolerances_to_string t

let fluid_of_string = function
  | "off" -> Ok None
  | s -> Result.map Option.some (tolerances_of_string s)

let kind_to_string = function Pepa -> "pepa" | Net -> "net"

let kind_of_string = function
  | "pepa" -> Pepa
  | "net" -> Net
  | other -> fail "unknown model kind %s (valid: pepa, net)" other

let backend_to_string = function Exact -> "exact" | Lump -> "lump" | Fluid_ode -> "fluid"

let backend_of_string = function
  | "exact" -> Exact
  | "lump" -> Lump
  | "fluid" -> Fluid_ode
  | other -> fail "unknown sweep backend %s (valid: exact, lump, fluid)" other

let options_to_json o =
  Obj
    [
      ("method", Str (method_to_string o.method_));
      ("aggregate", Str (Markov.Lump.mode_to_string o.aggregate));
      ("fluid", Str (fluid_to_string o.fluid));
      ("max_states", (match o.max_states with None -> Null | Some n -> Num (float_of_int n)));
      ("restart", Str (match o.restart with `Cycle -> "cycle" | `Absorb -> "absorb"));
    ]

(* A string option field decoded by its one parser; [absent] stands
   for a missing or null field. *)
let parsed_field name parse ~absent o =
  match member name o with
  | None | Some Null -> absent
  | Some (Str s) -> ( match parse s with Ok v -> v | Error msg -> fail "%s" msg)
  | Some _ -> fail "field %s is not a string" name

(* A count field holds a non-negative integer.  Fractions, negatives
   and magnitudes beyond 2^53 (where doubles stop representing every
   integer and [int_of_float] can wrap to a negative int) are rejected
   rather than converted. *)
let count_field name v =
  if Float.is_integer v && v >= 0.0 && v <= 0x1p53 then int_of_float v
  else fail "field %s is not an integer in [0, 2^53]" name

let options_of_json json =
  match member "options" json with
  | None | Some Null -> default_options
  | Some o ->
      let max_states =
        match member "max_states" o with
        | None | Some Null -> None
        | Some (Num v) -> Some (count_field "max_states" v)
        | Some _ -> fail "field max_states is not a number"
      in
      let restart =
        match member "restart" o with
        | None | Some (Str "cycle") -> `Cycle
        | Some (Str "absorb") -> `Absorb
        | Some (Str s) -> fail "unknown restart policy %s (valid: cycle, absorb)" s
        | Some _ -> fail "field restart is not a string"
      in
      {
        method_ = parsed_field "method" method_of_string ~absent:None o;
        aggregate = parsed_field "aggregate" aggregate_of_string ~absent:Markov.Lump.No_agg o;
        fluid = parsed_field "fluid" fluid_of_string ~absent:None o;
        max_states;
        restart;
      }

let axis_to_json a =
  let target, name =
    match a.target with `Rate n -> ("rate", n) | `Replicas n -> ("replicas", n)
  in
  Obj
    [
      ("target", Str target);
      ("name", Str name);
      ("values", Arr (List.map (fun v -> Num v) a.values));
    ]

let axis_of_json json =
  let name = str_field "name" json in
  let target =
    match str_field "target" json with
    | "rate" -> `Rate name
    | "replicas" -> `Replicas name
    | other -> fail "unknown axis target %s (valid: rate, replicas)" other
  in
  let values =
    match member "values" json with
    | Some (Arr vs) ->
        List.map
          (function Num v -> v | _ -> fail "axis %s has a non-numeric value" name)
          vs
    | _ -> fail "axis %s has no values array" name
  in
  if values = [] then fail "axis %s has an empty values array" name;
  { target; values }

(* ------------------------------------------------------------------ *)
(* Requests                                                            *)
(* ------------------------------------------------------------------ *)

(* [rates_name] is sent only when set, so a request without it encodes
   as it did before the field existed. *)
let rates_fields rates rates_name =
  ("rates", match rates with None -> Null | Some s -> Str s)
  :: (match rates_name with None -> [] | Some s -> [ ("rates_name", Str s) ])

let request_to_json = function
  | Solve { kind; name; source; options } ->
      Obj
        [
          ("verb", Str "solve");
          ("kind", Str (kind_to_string kind));
          ("name", Str name);
          ("source", Str source);
          ("options", options_to_json options);
        ]
  | Pipeline { name; document; rates; rates_name; options; xmltable } ->
      Obj
        ([ ("verb", Str "pipeline"); ("name", Str name); ("document", Str document) ]
        @ rates_fields rates rates_name
        @ [ ("options", options_to_json options); ("xmltable", Bool xmltable) ])
  | Query { kind; name; source; query; options } ->
      Obj
        [
          ("verb", Str "query");
          ("kind", Str (kind_to_string kind));
          ("name", Str name);
          ("source", Str source);
          ("query", Str query);
          ("options", options_to_json options);
        ]
  | Reflect { name; document; rates; rates_name; options } ->
      Obj
        ([ ("verb", Str "reflect"); ("name", Str name); ("document", Str document) ]
        @ rates_fields rates rates_name
        @ [ ("options", options_to_json options) ])
  | Sweep { kind; name; source; options; axes; backend; warm_start } ->
      Obj
        [
          ("verb", Str "sweep");
          ("kind", Str (kind_to_string kind));
          ("name", Str name);
          ("source", Str source);
          ("options", options_to_json options);
          ("axes", Arr (List.map axis_to_json axes));
          ("backend", Str (backend_to_string backend));
          ("warm_start", Bool warm_start);
        ]
  | Stats -> Obj [ ("verb", Str "stats") ]
  | Shutdown -> Obj [ ("verb", Str "shutdown") ]

let request_of_json json =
  match str_field "verb" json with
  | "solve" ->
      Solve
        {
          kind = kind_of_string (str_field "kind" json);
          name = str_field "name" json;
          source = str_field "source" json;
          options = options_of_json json;
        }
  | "pipeline" ->
      Pipeline
        {
          name = str_field "name" json;
          document = str_field "document" json;
          rates = opt_str_field "rates" json;
          rates_name = opt_str_field "rates_name" json;
          options = options_of_json json;
          xmltable = bool_field ~default:true "xmltable" json;
        }
  | "query" ->
      Query
        {
          kind = kind_of_string (str_field "kind" json);
          name = str_field "name" json;
          source = str_field "source" json;
          query = str_field "query" json;
          options = options_of_json json;
        }
  | "reflect" ->
      Reflect
        {
          name = str_field "name" json;
          document = str_field "document" json;
          rates = opt_str_field "rates" json;
          rates_name = opt_str_field "rates_name" json;
          options = options_of_json json;
        }
  | "sweep" ->
      let axes =
        match member "axes" json with
        | Some (Arr axes) -> List.map axis_of_json axes
        | _ -> fail "sweep request has no axes array"
      in
      if axes = [] then fail "sweep request has an empty axes array";
      Sweep
        {
          kind = kind_of_string (str_field "kind" json);
          name = str_field "name" json;
          source = str_field "source" json;
          options = options_of_json json;
          axes;
          backend = backend_of_string (str_field "backend" json);
          warm_start = bool_field ~default:true "warm_start" json;
        }
  | "stats" -> Stats
  | "shutdown" -> Shutdown
  | other -> fail "unknown verb %s" other

(* ------------------------------------------------------------------ *)
(* Responses                                                           *)
(* ------------------------------------------------------------------ *)

let response_to_json = function
  | Ok_response { output; diagnostics; data } ->
      Obj
        [
          ("status", Str "ok");
          ("output", Str output);
          ("diagnostics", Str diagnostics);
          ("data", data);
        ]
  | Error_response { code; message } ->
      Obj
        [ ("status", Str "error"); ("code", Num (float_of_int code)); ("message", Str message) ]

let response_of_json json =
  match str_field "status" json with
  | "ok" ->
      Ok_response
        {
          output = str_field "output" json;
          diagnostics = str_field "diagnostics" json;
          data = (match member "data" json with Some d -> d | None -> Null);
        }
  | "error" ->
      Error_response
        { code = int_of_float (num_field "code" json); message = str_field "message" json }
  | other -> fail "unknown response status %s" other
