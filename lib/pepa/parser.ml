open Syntax

exception Parse_error of { line : int; col : int; message : string }

(* ------------------------------------------------------------------ *)
(* Lexer                                                               *)
(* ------------------------------------------------------------------ *)

type token =
  | Uident of string
  | Lident of string
  | Number of float
  | Integer of int
  | Kw_stop
  | Kw_tau
  | Kw_infty
  | Kw_system
  | Equals
  | Semicolon
  | Lparen
  | Rparen
  | Lbrace
  | Rbrace
  | Lbracket
  | Rbracket
  | Langle
  | Rangle
  | Comma
  | Dot
  | Plus
  | Minus
  | Star
  | Slash
  | Eof

type spanned = { token : token; line : int; col : int }

let token_to_string = function
  | Uident s | Lident s -> Printf.sprintf "%S" s
  | Number v -> Printf.sprintf "%g" v
  | Integer v -> string_of_int v
  | Kw_stop -> "Stop"
  | Kw_tau -> "tau"
  | Kw_infty -> "infty"
  | Kw_system -> "system"
  | Equals -> "'='"
  | Semicolon -> "';'"
  | Lparen -> "'('"
  | Rparen -> "')'"
  | Lbrace -> "'{'"
  | Rbrace -> "'}'"
  | Lbracket -> "'['"
  | Rbracket -> "']'"
  | Langle -> "'<'"
  | Rangle -> "'>'"
  | Comma -> "','"
  | Dot -> "'.'"
  | Plus -> "'+'"
  | Minus -> "'-'"
  | Star -> "'*'"
  | Slash -> "'/'"
  | Eof -> "end of input"

let is_digit c = c >= '0' && c <= '9'
let is_alpha c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
let is_ident_char c = is_alpha c || is_digit c || c = '_' || c = '\''

let tokenize src =
  let tokens = ref [] in
  let pos = ref 0 and line = ref 1 and col = ref 1 in
  let n = String.length src in
  let fail message = raise (Parse_error { line = !line; col = !col; message }) in
  let push token line col = tokens := { token; line; col } :: !tokens in
  let advance () =
    if !pos < n then begin
      if src.[!pos] = '\n' then begin
        incr line;
        col := 1
      end
      else incr col;
      incr pos
    end
  in
  let peek k = if !pos + k < n then src.[!pos + k] else '\000' in
  while !pos < n do
    let c = src.[!pos] in
    let tok_line = !line and tok_col = !col in
    if c = ' ' || c = '\t' || c = '\r' || c = '\n' then advance ()
    else if c = '%' then
      while !pos < n && src.[!pos] <> '\n' do
        advance ()
      done
    else if c = '/' && peek 1 = '/' then
      while !pos < n && src.[!pos] <> '\n' do
        advance ()
      done
    else if c = '/' && peek 1 = '*' then begin
      advance ();
      advance ();
      let closed = ref false in
      while not !closed do
        if !pos >= n then fail "unterminated comment"
        else if src.[!pos] = '*' && peek 1 = '/' then begin
          advance ();
          advance ();
          closed := true
        end
        else advance ()
      done
    end
    else if is_digit c then begin
      let buf = Buffer.create 8 in
      let is_float = ref false in
      while is_digit (peek 0) do
        Buffer.add_char buf (peek 0);
        advance ()
      done;
      if peek 0 = '.' && is_digit (peek 1) then begin
        is_float := true;
        Buffer.add_char buf '.';
        advance ();
        while is_digit (peek 0) do
          Buffer.add_char buf (peek 0);
          advance ()
        done
      end;
      if peek 0 = 'e' || peek 0 = 'E' then begin
        is_float := true;
        Buffer.add_char buf 'e';
        advance ();
        if peek 0 = '+' || peek 0 = '-' then begin
          Buffer.add_char buf (peek 0);
          advance ()
        end;
        if not (is_digit (peek 0)) then fail "malformed exponent";
        while is_digit (peek 0) do
          Buffer.add_char buf (peek 0);
          advance ()
        done
      end;
      let text = Buffer.contents buf in
      if !is_float then push (Number (float_of_string text)) tok_line tok_col
      else push (Integer (int_of_string text)) tok_line tok_col
    end
    else if is_alpha c || c = '_' then begin
      let buf = Buffer.create 8 in
      while is_ident_char (peek 0) do
        Buffer.add_char buf (peek 0);
        advance ()
      done;
      let word = Buffer.contents buf in
      let token =
        match word with
        | "Stop" -> Kw_stop
        | "tau" -> Kw_tau
        | "infty" -> Kw_infty
        | "system" -> Kw_system
        | _ ->
            if (word.[0] >= 'A' && word.[0] <= 'Z') then Uident word else Lident word
      in
      push token tok_line tok_col
    end
    else begin
      let simple token =
        advance ();
        push token tok_line tok_col
      in
      match c with
      | '=' -> simple Equals
      | ';' -> simple Semicolon
      | '(' -> simple Lparen
      | ')' -> simple Rparen
      | '{' -> simple Lbrace
      | '}' -> simple Rbrace
      | '[' -> simple Lbracket
      | ']' -> simple Rbracket
      | '<' -> simple Langle
      | '>' -> simple Rangle
      | ',' -> simple Comma
      | '.' -> simple Dot
      | '+' -> simple Plus
      | '-' -> simple Minus
      | '*' -> simple Star
      | '/' -> simple Slash
      | c -> fail (Printf.sprintf "unexpected character %C" c)
    end
  done;
  push Eof !line !col;
  Array.of_list (List.rev !tokens)

(* ------------------------------------------------------------------ *)
(* Parser state                                                        *)
(* ------------------------------------------------------------------ *)

(* [depth] counts the parentheses open at the cursor, across process
   terms, rate expressions and the net parser's place contexts, which
   all read this stream. *)
type state = { tokens : spanned array; mutable index : int; mutable depth : int }

let current st = st.tokens.(st.index)
let peek_token st = (current st).token

let peek_token_at st k =
  let i = min (st.index + k) (Array.length st.tokens - 1) in
  st.tokens.(i).token

let error st message =
  let { line; col; _ } = current st in
  raise (Parse_error { line; col; message })

let advance st = if st.index < Array.length st.tokens - 1 then st.index <- st.index + 1

let expect st token what =
  if peek_token st = token then advance st
  else
    error st
      (Printf.sprintf "expected %s but found %s" what (token_to_string (peek_token st)))

(* The sub-parsers recurse once per open parenthesis, so nesting is
   capped (at the depth [Obs.Json] allows) to keep a hostile model from
   overflowing the stack. *)
let max_depth = 512

(* [( f )] with the cursor on the opening parenthesis. *)
let parenthesised st f =
  if st.depth >= max_depth then
    error st (Printf.sprintf "parentheses nested deeper than %d levels" max_depth);
  advance st;
  st.depth <- st.depth + 1;
  let inner = f st in
  expect st Rparen "')'";
  st.depth <- st.depth - 1;
  inner

(* ------------------------------------------------------------------ *)
(* Rate expressions                                                    *)
(* ------------------------------------------------------------------ *)

let rec parse_rate_expr st =
  let left = ref (parse_rate_term st) in
  let continue = ref true in
  while !continue do
    match peek_token st with
    | Plus ->
        advance st;
        left := Radd (!left, parse_rate_term st)
    | Minus ->
        advance st;
        left := Rsub (!left, parse_rate_term st)
    | _ -> continue := false
  done;
  !left

and parse_rate_term st =
  let left = ref (parse_rate_factor st) in
  let continue = ref true in
  while !continue do
    match peek_token st with
    | Star ->
        advance st;
        left := Rmul (!left, parse_rate_factor st)
    | Slash ->
        advance st;
        left := Rdiv (!left, parse_rate_factor st)
    | _ -> continue := false
  done;
  !left

and parse_rate_factor st =
  match peek_token st with
  | Number v ->
      advance st;
      Rnum v
  | Integer v ->
      advance st;
      Rnum (float_of_int v)
  | Lident name ->
      advance st;
      Rvar name
  | Kw_infty ->
      advance st;
      if peek_token st = Lbracket then begin
        advance st;
        let weight =
          match peek_token st with
          | Number v ->
              advance st;
              v
          | Integer v ->
              advance st;
              float_of_int v
          | _ -> error st "expected a numeric passive weight"
        in
        expect st Rbracket "']'";
        Rpassive weight
      end
      else Rpassive 1.0
  | Lparen -> parenthesised st parse_rate_expr
  | t -> error st (Printf.sprintf "expected a rate expression but found %s" (token_to_string t))

(* ------------------------------------------------------------------ *)
(* Process expressions                                                 *)
(* ------------------------------------------------------------------ *)

let parse_action_name st =
  match peek_token st with
  | Lident name ->
      advance st;
      Action.act name
  | Kw_tau ->
      advance st;
      Action.tau
  | t -> error st (Printf.sprintf "expected an action name but found %s" (token_to_string t))

let parse_action_set st =
  let rec loop acc =
    match peek_token st with
    | Lident name ->
        advance st;
        let acc = String_set.add name acc in
        if peek_token st = Comma then begin
          advance st;
          loop acc
        end
        else acc
    | t -> error st (Printf.sprintf "expected an action name but found %s" (token_to_string t))
  in
  match peek_token st with
  | Rangle | Rbrace -> String_set.empty
  | _ -> loop String_set.empty

(* Cooperation (weakest) > choice > postfix (hiding, replication) > atom. *)
let rec parse_expr st =
  let left = ref (parse_choice st) in
  while peek_token st = Langle do
    advance st;
    let set = parse_action_set st in
    expect st Rangle "'>'";
    let right = parse_choice st in
    left := Coop (!left, set, right)
  done;
  !left

and parse_choice st =
  let left = ref (parse_postfix st) in
  while peek_token st = Plus do
    advance st;
    let right = parse_postfix st in
    left := Choice (!left, right)
  done;
  !left

and parse_postfix st =
  let e = ref (parse_atom st) in
  let continue = ref true in
  while !continue do
    match peek_token st with
    | Slash ->
        advance st;
        expect st Lbrace "'{'";
        let set = parse_action_set st in
        expect st Rbrace "'}'";
        e := Hide (!e, set)
    | Lbracket ->
        advance st;
        let count =
          match peek_token st with
          | Integer v when v > 0 ->
              advance st;
              v
          | _ -> error st "expected a positive replication count"
        in
        expect st Rbracket "']'";
        e := Array_rep (!e, count)
    | _ -> continue := false
  done;
  !e

and parse_atom st =
  match peek_token st with
  | Kw_stop ->
      advance st;
      Stop
  | Uident name ->
      advance st;
      Var name
  | Lparen -> (
      (* Distinguish an activity prefix "(a, r)." from grouping "(P)". *)
      match (peek_token_at st 1, peek_token_at st 2) with
      | (Lident _ | Kw_tau), Comma ->
          let action, rate =
            parenthesised st (fun st ->
                let action = parse_action_name st in
                expect st Comma "','";
                (action, parse_rate_expr st))
          in
          expect st Dot "'.'";
          let cont = parse_postfix st in
          Prefix (action, rate, cont)
      | _ -> parenthesised st parse_expr)
  | t -> error st (Printf.sprintf "expected a process expression but found %s" (token_to_string t))

(* ------------------------------------------------------------------ *)
(* Models                                                              *)
(* ------------------------------------------------------------------ *)

let parse_model st =
  let definitions = ref [] in
  let system = ref None in
  let continue = ref true in
  while !continue do
    match peek_token st with
    | Eof -> continue := false
    | Kw_system ->
        advance st;
        let e = parse_expr st in
        expect st Semicolon "';'";
        if !system <> None then error st "duplicate system directive";
        system := Some e
    | Uident name ->
        advance st;
        expect st Equals "'='";
        let body = parse_expr st in
        expect st Semicolon "';'";
        definitions := Proc_def (name, body) :: !definitions
    | Lident name ->
        advance st;
        expect st Equals "'='";
        let body = parse_rate_expr st in
        expect st Semicolon "';'";
        definitions := Rate_def (name, body) :: !definitions
    | t ->
        error st
          (Printf.sprintf "expected a definition or system directive but found %s"
             (token_to_string t))
  done;
  let definitions = List.rev !definitions in
  let system =
    match !system with
    | Some e -> e
    | None -> (
        let last_process =
          List.fold_left
            (fun acc def -> match def with Proc_def (name, _) -> Some name | Rate_def _ -> acc)
            None definitions
        in
        match last_process with
        | Some name -> Var name
        | None -> error st "the model defines no process")
  in
  { definitions; system }

let stream_of_string src = { tokens = tokenize src; index = 0; depth = 0 }

let run parse src =
  let st = stream_of_string src in
  let result = parse st in
  (match peek_token st with
  | Eof -> ()
  | t -> error st (Printf.sprintf "trailing input: %s" (token_to_string t)));
  result

let model_of_string src = run parse_model src
let expr_of_string src = run parse_expr src
let rate_expr_of_string src = run parse_rate_expr src

type stream = state

let stream_peek = peek_token
let stream_peek_at = peek_token_at
let stream_advance = advance
let stream_expect = expect
let stream_error st message = error st message
let stream_parenthesised = parenthesised
let parse_expr_at = parse_expr
let parse_rate_expr_at = parse_rate_expr
let parse_action_set_at = parse_action_set

let model_of_file path =
  let ic = open_in_bin path in
  let src =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  model_of_string src
