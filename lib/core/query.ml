type passage_measure = Mean | Median | Completion | Cdf of float

type t =
  | Throughput of string
  | Utilisation of string
  | Located of string * string
  | Passage of string * string * passage_measure
  | Num of float
  | Add of t * t
  | Sub of t * t
  | Mul of t * t
  | Div of t * t

exception Query_error of string

let fail fmt = Format.kasprintf (fun msg -> raise (Query_error msg)) fmt

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

type token =
  | Ident of string
  | Number of float
  | Lparen
  | Rparen
  | Comma
  | Dot
  | Arrow
  | Plus
  | Minus
  | Star
  | Slash
  | Eof

let tokenize src =
  let tokens = ref [] in
  let pos = ref 0 in
  let n = String.length src in
  let peek k = if !pos + k < n then src.[!pos + k] else '\000' in
  let is_ident c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c = '_'
    || c = '.'
  in
  while !pos < n do
    let c = src.[!pos] in
    if c = ' ' || c = '\t' || c = '\n' || c = '\r' then incr pos
    else if c = '-' && peek 1 = '>' then begin
      tokens := Arrow :: !tokens;
      pos := !pos + 2
    end
    else if (c >= '0' && c <= '9') || (c = '.' && peek 1 >= '0' && peek 1 <= '9') then begin
      let start = !pos in
      while
        !pos < n
        && ((src.[!pos] >= '0' && src.[!pos] <= '9') || src.[!pos] = '.' || src.[!pos] = 'e'
           || src.[!pos] = 'E'
           || ((src.[!pos] = '+' || src.[!pos] = '-')
              && !pos > start
              && (src.[!pos - 1] = 'e' || src.[!pos - 1] = 'E')))
      do
        incr pos
      done;
      match float_of_string_opt (String.sub src start (!pos - start)) with
      | Some v -> tokens := Number v :: !tokens
      | None -> fail "malformed number %S" (String.sub src start (!pos - start))
    end
    else if (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' then begin
      let start = !pos in
      while !pos < n && is_ident src.[!pos] do
        incr pos
      done;
      (* A trailing '.' belongs to the passage-measure selector, not the
         identifier. *)
      let stop = ref !pos in
      while !stop > start && src.[!stop - 1] = '.' do
        decr stop;
        decr pos
      done;
      tokens := Ident (String.sub src start (!stop - start)) :: !tokens
    end
    else begin
      (match c with
      | '(' -> tokens := Lparen :: !tokens
      | ')' -> tokens := Rparen :: !tokens
      | ',' -> tokens := Comma :: !tokens
      | '.' -> tokens := Dot :: !tokens
      | '+' -> tokens := Plus :: !tokens
      | '-' -> tokens := Minus :: !tokens
      | '*' -> tokens := Star :: !tokens
      | '/' -> tokens := Slash :: !tokens
      | c -> fail "unexpected character %C" c);
      incr pos
    end
  done;
  Array.of_list (List.rev (Eof :: !tokens))

type state = { tokens : token array; mutable index : int }

let peek st = st.tokens.(st.index)
let advance st = if st.index < Array.length st.tokens - 1 then st.index <- st.index + 1

let token_name = function
  | Ident s -> Printf.sprintf "%S" s
  | Number v -> Printf.sprintf "%g" v
  | Lparen -> "'('"
  | Rparen -> "')'"
  | Comma -> "','"
  | Dot -> "'.'"
  | Arrow -> "'->'"
  | Plus -> "'+'"
  | Minus -> "'-'"
  | Star -> "'*'"
  | Slash -> "'/'"
  | Eof -> "end of input"

let expect st token =
  if peek st = token then advance st
  else fail "expected %s but found %s" (token_name token) (token_name (peek st))

let ident st =
  match peek st with
  | Ident s ->
      advance st;
      s
  | t -> fail "expected a name but found %s" (token_name t)

let rec parse_expr st =
  let left = ref (parse_term st) in
  let continue = ref true in
  while !continue do
    match peek st with
    | Plus ->
        advance st;
        left := Add (!left, parse_term st)
    | Minus ->
        advance st;
        left := Sub (!left, parse_term st)
    | _ -> continue := false
  done;
  !left

and parse_term st =
  let left = ref (parse_atom st) in
  let continue = ref true in
  while !continue do
    match peek st with
    | Star ->
        advance st;
        left := Mul (!left, parse_atom st)
    | Slash ->
        advance st;
        left := Div (!left, parse_atom st)
    | _ -> continue := false
  done;
  !left

and parse_atom st =
  match peek st with
  | Number v ->
      advance st;
      Num v
  | Lparen ->
      advance st;
      let e = parse_expr st in
      expect st Rparen;
      e
  | Ident "throughput" ->
      advance st;
      expect st Lparen;
      let name = ident st in
      expect st Rparen;
      Throughput name
  | Ident "utilisation" ->
      advance st;
      expect st Lparen;
      let name = ident st in
      expect st Rparen;
      Utilisation name
  | Ident "located" ->
      advance st;
      expect st Lparen;
      let token = ident st in
      expect st Comma;
      let place = ident st in
      expect st Rparen;
      Located (token, place)
  | Ident "passage" ->
      advance st;
      expect st Lparen;
      let source = ident st in
      expect st Arrow;
      let target = ident st in
      expect st Rparen;
      expect st Dot;
      let measure =
        match ident st with
        | "mean" -> Mean
        | "median" -> Median
        | "completion" -> Completion
        | "cdf" ->
            expect st Lparen;
            let t =
              match peek st with
              | Number v ->
                  advance st;
                  v
              | t -> fail "expected a time but found %s" (token_name t)
            in
            expect st Rparen;
            Cdf t
        | other -> fail "unknown passage measure %s" other
      in
      Passage (source, target, measure)
  | t -> fail "expected a query but found %s" (token_name t)

let parse src =
  let st = { tokens = tokenize src; index = 0 } in
  let q = parse_expr st in
  (match peek st with Eof -> () | t -> fail "trailing input: %s" (token_name t));
  q

let rec to_string = function
  | Throughput a -> Printf.sprintf "throughput(%s)" a
  | Utilisation s -> Printf.sprintf "utilisation(%s)" s
  | Located (tok, place) -> Printf.sprintf "located(%s, %s)" tok place
  | Passage (a, b, m) ->
      let measure =
        match m with
        | Mean -> "mean"
        | Median -> "median"
        | Completion -> "completion"
        | Cdf t -> Printf.sprintf "cdf(%g)" t
      in
      Printf.sprintf "passage(%s -> %s).%s" a b measure
  | Num v -> Printf.sprintf "%g" v
  | Add (a, b) -> Printf.sprintf "(%s + %s)" (to_string a) (to_string b)
  | Sub (a, b) -> Printf.sprintf "(%s - %s)" (to_string a) (to_string b)
  | Mul (a, b) -> Printf.sprintf "(%s * %s)" (to_string a) (to_string b)
  | Div (a, b) -> Printf.sprintf "(%s / %s)" (to_string a) (to_string b)

(* ------------------------------------------------------------------ *)
(* Evaluation                                                          *)
(* ------------------------------------------------------------------ *)

type context = {
  chain : Markov.Ctmc.t;
  throughput : string -> float option;
  utilisation : string -> float option;
  located : string -> string -> float option;
  reached_by : string -> int list;  (* states entered by an action *)
}

let context_of_pepa (analysis : Workbench.pepa_analysis) =
  let space = analysis.Workbench.space in
  let results = analysis.Workbench.results in
  {
    chain = Pepa.Statespace.ctmc space;
    throughput =
      (fun a ->
        if List.mem a (Pepa.Statespace.action_names space) then
          Some (Pepa.Statespace.throughput space analysis.Workbench.distribution a)
        else None);
    utilisation = (fun name -> Results.probability results name);
    located = (fun _ _ -> None);
    reached_by = Pepa.Analysis.states_entered_by space;
  }

let context_of_net (analysis : Workbench.net_analysis) =
  let space = analysis.Workbench.net_space in
  let pi = analysis.Workbench.net_distribution in
  let compiled = Pepanet.Net_statespace.compiled space in
  let token_id name =
    let rec scan i =
      if i >= Pepanet.Net_compile.n_tokens compiled then None
      else if Pepanet.Net_compile.token_name compiled i = name then Some i
      else scan (i + 1)
    in
    scan 0
  in
  let lts = Pepanet.Net_statespace.lts space in
  {
    chain = Markov.Lts.ctmc lts;
    throughput =
      (fun a ->
        if List.mem a (Pepanet.Net_statespace.action_names space) then
          Some (Pepanet.Net_measures.throughput space pi a)
        else None);
    utilisation = (fun _ -> None);
    located =
      (fun token place ->
        Option.map
          (fun id ->
            Option.value ~default:0.0
              (List.assoc_opt place
                 (Pepanet.Net_measures.token_location_probabilities space pi ~token:id)))
          (token_id token));
    reached_by = (fun a -> Markov.Lts.targets lts (Pepanet.Net_measures.label_matches_action a));
  }

let rec eval context = function
  | Num v -> v
  | Add (a, b) -> eval context a +. eval context b
  | Sub (a, b) -> eval context a -. eval context b
  | Mul (a, b) -> eval context a *. eval context b
  | Div (a, b) -> eval context a /. eval context b
  | Throughput a -> (
      match context.throughput a with
      | Some v -> v
      | None -> fail "no action type %s in the model" a)
  | Utilisation name -> (
      match context.utilisation name with
      | Some v -> v
      | None -> fail "no component state %s in the model" name)
  | Located (token, place) -> (
      match context.located token place with
      | Some v -> v
      | None -> fail "no token %s (or located() used on a plain PEPA model)" token)
  | Passage (a, b, measure) -> (
      let sources = List.map (fun s -> (s, 1.0)) (context.reached_by a) in
      let targets = context.reached_by b in
      if sources = [] then fail "no %s activity to start the passage from" a;
      if targets = [] then fail "no %s activity to end the passage at" b;
      match measure with
      | Mean -> Markov.Passage.mean context.chain ~sources ~targets
      | Completion -> Markov.Passage.completion_probability context.chain ~sources ~targets
      | Median -> Markov.Passage.quantile context.chain ~sources ~targets ~p:0.5 ~epsilon:1e-6
      | Cdf t -> Markov.Passage.cdf context.chain ~sources ~targets ~t)

let eval_string context src = eval context (parse src)
