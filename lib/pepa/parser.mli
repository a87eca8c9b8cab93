(** Parser for the concrete PEPA syntax.

    The accepted language (comments are [%]-to-end-of-line,
    [//]-to-end-of-line or [/* ... */]):
    {v
      model      ::= definition* ("system" expr ";")?
      definition ::= Uident "=" expr ";"        (process definition)
                   | lident "=" rate-expr ";"   (rate parameter)
      expr       ::= expr "<" lident,* ">" expr (cooperation, left assoc)
                   | expr "+" expr              (choice, left assoc)
                   | expr "/" "{" lident,* "}"  (hiding)
                   | expr "[" int "]"           (replication)
                   | "(" (lident|"tau") "," rate-expr ")" "." expr   (prefix)
                   | "(" expr ")" | Uident | "Stop"
      rate-expr  ::= usual arithmetic over numbers and lidents,
                     plus "infty" and "infty[" number "]"
    v}
    Process constants start with an upper-case letter, rate parameters
    and action types with a lower-case letter, following the classical
    PEPA convention.  If no [system] directive is present the last
    process definition is taken as the system equation.

    Parentheses may nest at most 512 deep (counted across process
    terms, rate expressions and PEPA-net place contexts); deeper input
    raises {!Parse_error} at the first parenthesis past the limit
    rather than exhausting the stack.  Likewise at most 512 activity
    prefixes may enclose any point of a term: a chain
    ["(a, r).(a, r)...P"] parses in a loop, but every later pass
    recurses once per prefix and the chain's local-state labels grow
    with the square of its length, so a longer chain raises
    {!Parse_error} at its 513th prefix.  For the same reason one choice
    may have at most 512 alternatives and one cooperation chain at most
    512 members; the operator that would add the 513th raises
    {!Parse_error}. *)

exception Parse_error of { line : int; col : int; message : string }

val model_of_string : string -> Syntax.model
val model_of_file : string -> Syntax.model

val expr_of_string : string -> Syntax.expr
(** Parse a single process expression (for tests and embedding). *)

val rate_expr_of_string : string -> Syntax.rate_expr

(** {1 Token-stream interface}

    The PEPA nets parser extends this grammar with net-level constructs
    (places, cells, net transitions) and reuses the lexer and the
    expression sub-parsers through this interface. *)

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

type stream

val token_to_string : token -> string
val stream_of_string : string -> stream
val stream_peek : stream -> token
val stream_peek_at : stream -> int -> token
val stream_advance : stream -> unit
val stream_expect : stream -> token -> string -> unit
val stream_error : stream -> string -> 'a

val stream_parenthesised : stream -> (stream -> 'a) -> 'a
(** [stream_parenthesised st f] parses ["(" f ")"] with the cursor on
    the opening parenthesis, counting it against the nesting cap. *)

val parse_expr_at : stream -> Syntax.expr
val parse_rate_expr_at : stream -> Syntax.rate_expr
val parse_action_set_at : stream -> Syntax.String_set.t
(** Parse a comma-separated (possibly empty) action-name list; stops
    before the closing ['>'] or ['}']. *)
