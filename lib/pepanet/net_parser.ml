module P = Pepa.Parser
module String_set = Pepa.Syntax.String_set

exception Parse_error of { line : int; col : int; message : string }

(* ------------------------------------------------------------------ *)
(* Context expressions                                                 *)
(* ------------------------------------------------------------------ *)

let rec parse_context st =
  let left = ref (parse_context_atom st) in
  while P.stream_peek st = P.Langle do
    P.stream_advance st;
    let set = P.parse_action_set_at st in
    P.stream_expect st P.Rangle "'>'";
    let right = parse_context_atom st in
    left := Net.Ctx_coop (!left, set, right)
  done;
  !left

and parse_context_atom st =
  match P.stream_peek st with
  | P.Lparen -> P.stream_parenthesised st parse_context
  | P.Uident name -> (
      P.stream_advance st;
      match P.stream_peek st with
      | P.Lbracket ->
          P.stream_advance st;
          let initial_token =
            match P.stream_peek st with
            | P.Uident token ->
                P.stream_advance st;
                Some token
            | P.Lident "_" ->
                P.stream_advance st;
                None
            | _ -> P.stream_error st "expected a token name or '_' inside the cell"
          in
          P.stream_expect st P.Rbracket "']'";
          Net.Cell { cell_type = name; initial_token }
      | _ -> Net.Static name)
  | t ->
      P.stream_error st
        (Printf.sprintf "expected a place context but found %s" (P.token_to_string t))

(* ------------------------------------------------------------------ *)
(* Declarations                                                        *)
(* ------------------------------------------------------------------ *)

let parse_place_list st =
  let rec loop acc =
    match P.stream_peek st with
    | P.Uident name ->
        P.stream_advance st;
        if P.stream_peek st = P.Comma then begin
          P.stream_advance st;
          loop (name :: acc)
        end
        else List.rev (name :: acc)
    | t ->
        P.stream_error st
          (Printf.sprintf "expected a place name but found %s" (P.token_to_string t))
  in
  loop []

let parse_transition st name =
  P.stream_expect st P.Equals "'='";
  P.stream_expect st P.Lparen "'('";
  let firing_action =
    match P.stream_peek st with
    | P.Lident action ->
        P.stream_advance st;
        action
    | t ->
        P.stream_error st
          (Printf.sprintf "expected a firing action name but found %s" (P.token_to_string t))
  in
  P.stream_expect st P.Comma "','";
  let firing_rate = P.parse_rate_expr_at st in
  P.stream_expect st P.Rparen "')'";
  (match P.stream_peek st with
  | P.Lident "from" -> P.stream_advance st
  | t -> P.stream_error st (Printf.sprintf "expected 'from' but found %s" (P.token_to_string t)));
  let inputs = parse_place_list st in
  (match P.stream_peek st with
  | P.Lident "to" -> P.stream_advance st
  | t -> P.stream_error st (Printf.sprintf "expected 'to' but found %s" (P.token_to_string t)));
  let outputs = parse_place_list st in
  let priority =
    match P.stream_peek st with
    | P.Lident "priority" -> (
        P.stream_advance st;
        match P.stream_peek st with
        | P.Integer p when p >= 0 ->
            P.stream_advance st;
            p
        | _ -> P.stream_error st "expected a non-negative integer priority")
    | _ -> 1
  in
  P.stream_expect st P.Semicolon "';'";
  { Net.transition_name = name; firing_action; firing_rate; inputs; outputs; priority }

let parse_net st =
  let definitions = ref [] in
  let token_types = ref [] in
  let places = ref [] in
  let transitions = ref [] in
  let continue = ref true in
  while !continue do
    match (P.stream_peek st, P.stream_peek_at st 1) with
    | P.Eof, _ -> continue := false
    | P.Lident "token", P.Uident name ->
        P.stream_advance st;
        P.stream_advance st;
        P.stream_expect st P.Semicolon "';'";
        token_types := name :: !token_types
    | P.Lident "place", P.Uident name ->
        P.stream_advance st;
        P.stream_advance st;
        P.stream_expect st P.Equals "'='";
        let context = parse_context st in
        P.stream_expect st P.Semicolon "';'";
        places := { Net.place_name = name; context } :: !places
    | P.Lident "trans", (P.Uident name | P.Lident name) ->
        P.stream_advance st;
        P.stream_advance st;
        transitions := parse_transition st name :: !transitions
    | P.Uident name, _ ->
        P.stream_advance st;
        P.stream_expect st P.Equals "'='";
        let body = P.parse_expr_at st in
        P.stream_expect st P.Semicolon "';'";
        definitions := Pepa.Syntax.Proc_def (name, body) :: !definitions
    | P.Lident name, _ ->
        P.stream_advance st;
        P.stream_expect st P.Equals "'='";
        let body = P.parse_rate_expr_at st in
        P.stream_expect st P.Semicolon "';'";
        definitions := Pepa.Syntax.Rate_def (name, body) :: !definitions
    | t, _ ->
        P.stream_error st
          (Printf.sprintf "expected a definition or net declaration but found %s"
             (P.token_to_string t))
  done;
  {
    Net.definitions = List.rev !definitions;
    token_types = List.rev !token_types;
    places = List.rev !places;
    transitions = List.rev !transitions;
  }

let net_of_string src =
  try
    let st = P.stream_of_string src in
    let net = parse_net st in
    (match P.stream_peek st with
    | P.Eof -> ()
    | t -> P.stream_error st (Printf.sprintf "trailing input: %s" (P.token_to_string t)));
    net
  with P.Parse_error { line; col; message } -> raise (Parse_error { line; col; message })

let net_of_file path =
  let ic = open_in_bin path in
  let src =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  net_of_string src
