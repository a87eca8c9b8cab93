type t =
  | Element of string * (string * string) list * t list
  | Text of string
  | Cdata of string
  | Comment of string
  | Pi of string * string

exception Parse_error of { line : int; col : int; message : string }

(* ------------------------------------------------------------------ *)
(* Lexing / parsing                                                    *)
(* ------------------------------------------------------------------ *)

type cursor = {
  src : string;
  mutable pos : int;
  mutable line : int;
  mutable col : int;
  mutable depth : int;  (* elements open at the cursor *)
}

let cursor_of_string src = { src; pos = 0; line = 1; col = 1; depth = 0 }

(* The parser recurses once per open element, so nesting is capped (at
   the depth [Obs.Json] allows) to keep a hostile document from
   overflowing the stack. *)
let max_depth = 512

let fail cur message = raise (Parse_error { line = cur.line; col = cur.col; message })

let eof cur = cur.pos >= String.length cur.src

let peek cur = if eof cur then '\000' else cur.src.[cur.pos]

let advance cur =
  if not (eof cur) then begin
    if cur.src.[cur.pos] = '\n' then begin
      cur.line <- cur.line + 1;
      cur.col <- 1
    end
    else cur.col <- cur.col + 1;
    cur.pos <- cur.pos + 1
  end

let next cur =
  let c = peek cur in
  advance cur;
  c

let looking_at cur prefix =
  let n = String.length prefix in
  cur.pos + n <= String.length cur.src && String.sub cur.src cur.pos n = prefix

let expect_string cur prefix =
  if looking_at cur prefix then
    for _ = 1 to String.length prefix do
      advance cur
    done
  else fail cur (Printf.sprintf "expected %S" prefix)

let is_space = function ' ' | '\t' | '\n' | '\r' -> true | _ -> false

let skip_spaces cur =
  while (not (eof cur)) && is_space (peek cur) do
    advance cur
  done

let is_name_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || c = ':'

let is_name_char c =
  is_name_start c || (c >= '0' && c <= '9') || c = '-' || c = '.'

let parse_name cur =
  if not (is_name_start (peek cur)) then fail cur "expected a name";
  let buf = Buffer.create 16 in
  while is_name_char (peek cur) do
    Buffer.add_char buf (next cur)
  done;
  Buffer.contents buf

(* Scan until the terminator string; the terminator is consumed and the text
   before it returned.  Used for comments, CDATA and processing
   instructions. *)
let scan_until cur terminator what =
  let buf = Buffer.create 32 in
  let rec loop () =
    if eof cur then fail cur (Printf.sprintf "unterminated %s" what)
    else if looking_at cur terminator then expect_string cur terminator
    else begin
      Buffer.add_char buf (next cur);
      loop ()
    end
  in
  loop ();
  Buffer.contents buf

let parse_entity cur =
  (* The '&' has been consumed. *)
  let body = Buffer.create 8 in
  let rec collect () =
    match next cur with
    | ';' -> Buffer.contents body
    | '\000' -> fail cur "unterminated entity reference"
    | c ->
        if Buffer.length body > 16 then fail cur "entity reference too long";
        Buffer.add_char body c;
        collect ()
  in
  let name = collect () in
  match name with
  | "lt" -> "<"
  | "gt" -> ">"
  | "amp" -> "&"
  | "quot" -> "\""
  | "apos" -> "'"
  | _ ->
      let numeric prefix base =
        let digits = String.sub name (String.length prefix) (String.length name - String.length prefix) in
        match int_of_string_opt (base ^ digits) with
        | Some code when code >= 0 && code < 0x110000 ->
            (* Encode as UTF-8. *)
            let b = Buffer.create 4 in
            if code < 0x80 then Buffer.add_char b (Char.chr code)
            else if code < 0x800 then begin
              Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
              Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
            end
            else if code < 0x10000 then begin
              Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
              Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
              Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
            end
            else begin
              Buffer.add_char b (Char.chr (0xF0 lor (code lsr 18)));
              Buffer.add_char b (Char.chr (0x80 lor ((code lsr 12) land 0x3F)));
              Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
              Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
            end;
            Buffer.contents b
        | _ -> fail cur (Printf.sprintf "invalid character reference &%s;" name)
      in
      if String.length name > 2 && name.[0] = '#' && (name.[1] = 'x' || name.[1] = 'X') then
        numeric "#x" "0x"
      else if String.length name > 1 && name.[0] = '#' then numeric "#" ""
      else fail cur (Printf.sprintf "unknown entity &%s;" name)

let parse_attribute_value cur =
  let quote = next cur in
  if quote <> '"' && quote <> '\'' then fail cur "expected a quoted attribute value";
  let buf = Buffer.create 16 in
  let rec loop () =
    match next cur with
    | '\000' -> fail cur "unterminated attribute value"
    | c when c = quote -> Buffer.contents buf
    | '<' -> fail cur "'<' is not allowed in attribute values"
    | '&' ->
        Buffer.add_string buf (parse_entity cur);
        loop ()
    | c ->
        Buffer.add_char buf c;
        loop ()
  in
  loop ()

let parse_attributes cur =
  let rec loop acc =
    skip_spaces cur;
    if is_name_start (peek cur) then begin
      let key = parse_name cur in
      skip_spaces cur;
      expect_string cur "=";
      skip_spaces cur;
      let value = parse_attribute_value cur in
      if List.mem_assoc key acc then fail cur (Printf.sprintf "duplicate attribute %s" key);
      loop ((key, value) :: acc)
    end
    else List.rev acc
  in
  loop []

let parse_text cur =
  let buf = Buffer.create 32 in
  let rec loop () =
    if eof cur || peek cur = '<' then Buffer.contents buf
    else
      match next cur with
      | '&' ->
          Buffer.add_string buf (parse_entity cur);
          loop ()
      | c ->
          Buffer.add_char buf c;
          loop ()
  in
  loop ()

(* Parse one markup construct starting at '<'. Returns [None] for closing
   tags (the caller handles them) and [Some node] otherwise. *)
let rec parse_node cur =
  if looking_at cur "<!--" then begin
    expect_string cur "<!--";
    Some (Comment (scan_until cur "-->" "comment"))
  end
  else if looking_at cur "<![CDATA[" then begin
    expect_string cur "<![CDATA[";
    Some (Cdata (scan_until cur "]]>" "CDATA section"))
  end
  else if looking_at cur "<!DOCTYPE" then begin
    (* Skip the declaration, tracking bracket nesting for internal subsets. *)
    expect_string cur "<!DOCTYPE";
    let depth = ref 0 in
    let rec skip () =
      match next cur with
      | '\000' -> fail cur "unterminated DOCTYPE"
      | '[' ->
          incr depth;
          skip ()
      | ']' ->
          decr depth;
          skip ()
      | '>' when !depth = 0 -> ()
      | _ -> skip ()
    in
    skip ();
    None
  end
  else if looking_at cur "<?" then begin
    expect_string cur "<?";
    let target = parse_name cur in
    skip_spaces cur;
    let body = scan_until cur "?>" "processing instruction" in
    Some (Pi (target, body))
  end
  else begin
    if cur.depth >= max_depth then
      fail cur (Printf.sprintf "elements nested deeper than %d levels" max_depth);
    expect_string cur "<";
    let tag = parse_name cur in
    let attrs = parse_attributes cur in
    skip_spaces cur;
    if looking_at cur "/>" then begin
      expect_string cur "/>";
      Some (Element (tag, attrs, []))
    end
    else begin
      expect_string cur ">";
      cur.depth <- cur.depth + 1;
      let children = parse_children cur tag in
      cur.depth <- cur.depth - 1;
      Some (Element (tag, attrs, children))
    end
  end

and parse_children cur tag =
  let rec loop acc =
    if eof cur then fail cur (Printf.sprintf "unterminated element <%s>" tag)
    else if looking_at cur "</" then begin
      expect_string cur "</";
      let closing = parse_name cur in
      skip_spaces cur;
      expect_string cur ">";
      if closing <> tag then
        fail cur (Printf.sprintf "mismatched closing tag </%s> for <%s>" closing tag);
      List.rev acc
    end
    else if peek cur = '<' then
      match parse_node cur with
      | Some node -> loop (node :: acc)
      | None -> loop acc
    else begin
      let text = parse_text cur in
      if text = "" then loop acc else loop (Text text :: acc)
    end
  in
  loop []

let parse_prolog cur =
  skip_spaces cur;
  if
    looking_at cur "<?xml"
    && cur.pos + 5 < String.length cur.src
    && is_space cur.src.[cur.pos + 5]
  then begin
    expect_string cur "<?xml";
    let _ = scan_until cur "?>" "XML declaration" in
    ()
  end

let parse_toplevel cur =
  parse_prolog cur;
  let rec loop acc =
    skip_spaces cur;
    if eof cur then List.rev acc
    else if peek cur = '<' then
      match parse_node cur with
      | Some node -> loop (node :: acc)
      | None -> loop acc
    else fail cur "text is not allowed at the top level"
  in
  loop []

let parse_fragments s = parse_toplevel (cursor_of_string s)

let parse_string s =
  Obs.Span.with_ "xml.parse" (fun span ->
      Obs.Span.add_int span "bytes" (String.length s);
      let cur = cursor_of_string s in
      let nodes = parse_toplevel cur in
      let roots = List.filter (function Element _ -> true | _ -> false) nodes in
      match roots with
      | [ root ] -> root
      | [] -> raise (Parse_error { line = cur.line; col = cur.col; message = "no root element" })
      | _ ->
          raise
            (Parse_error { line = cur.line; col = cur.col; message = "multiple root elements" }))

let read_whole_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let parse_file path =
  Obs.Span.with_ "xml.parse_file" (fun span ->
      Obs.Span.add_str span "file" path;
      parse_string (read_whole_file path))

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

(* Append [s] to [buf], escaped: runs that need no escaping are copied
   whole, so printing allocates nothing per attribute or text node. *)
let add_escaped buf ~quotes s =
  let last = ref 0 in
  for i = 0 to String.length s - 1 do
    let entity =
      match String.unsafe_get s i with
      | '<' -> "&lt;"
      | '>' -> "&gt;"
      | '&' -> "&amp;"
      | '"' when quotes -> "&quot;"
      | _ -> ""
    in
    if entity <> "" then begin
      Buffer.add_substring buf s !last (i - !last);
      Buffer.add_string buf entity;
      last := i + 1
    end
  done;
  Buffer.add_substring buf s !last (String.length s - !last)

let escape_generic ~quotes s =
  let buf = Buffer.create (String.length s) in
  add_escaped buf ~quotes s;
  Buffer.contents buf

let escape_text s = escape_generic ~quotes:false s
let escape_attribute s = escape_generic ~quotes:true s

let has_text_child children = List.exists (function Text _ -> true | _ -> false) children

let to_string ?(decl = true) ?(indent = 2) node =
  let buf = Buffer.create 1024 in
  if decl then Buffer.add_string buf "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n";
  let pad depth =
    for _ = 1 to depth * indent do
      Buffer.add_char buf ' '
    done
  in
  let newline () = if indent > 0 then Buffer.add_char buf '\n' in
  let render_attrs attrs =
    List.iter
      (fun (k, v) ->
        Buffer.add_char buf ' ';
        Buffer.add_string buf k;
        Buffer.add_string buf "=\"";
        add_escaped buf ~quotes:true v;
        Buffer.add_char buf '"')
      attrs
  in
  (* [inline] suppresses indentation inside mixed content so character data
     round-trips unchanged. *)
  let rec render ~inline depth node =
    match node with
    | Text s -> add_escaped buf ~quotes:false s
    | Cdata s ->
        Buffer.add_string buf "<![CDATA[";
        Buffer.add_string buf s;
        Buffer.add_string buf "]]>"
    | Comment s ->
        Buffer.add_string buf "<!--";
        Buffer.add_string buf s;
        Buffer.add_string buf "-->"
    | Pi (target, body) ->
        Buffer.add_string buf (Printf.sprintf "<?%s %s?>" target body)
    | Element (tag, attrs, []) ->
        Buffer.add_char buf '<';
        Buffer.add_string buf tag;
        render_attrs attrs;
        Buffer.add_string buf "/>"
    | Element (tag, attrs, children) ->
        Buffer.add_char buf '<';
        Buffer.add_string buf tag;
        render_attrs attrs;
        Buffer.add_char buf '>';
        if inline || has_text_child children then
          List.iter (render ~inline:true depth) children
        else begin
          List.iter
            (fun child ->
              newline ();
              pad (depth + 1);
              render ~inline:false (depth + 1) child)
            children;
          newline ();
          pad depth
        end;
        Buffer.add_string buf "</";
        Buffer.add_string buf tag;
        Buffer.add_char buf '>'
  in
  render ~inline:false 0 node;
  if indent > 0 then Buffer.add_char buf '\n';
  Buffer.contents buf

let write_file path node =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (to_string node))

(* ------------------------------------------------------------------ *)
(* Accessors and rewriting                                             *)
(* ------------------------------------------------------------------ *)

let name = function Element (tag, _, _) -> tag | _ -> ""

let attribute key = function
  | Element (_, attrs, _) -> List.assoc_opt key attrs
  | _ -> None

let attribute_exn key node =
  match attribute key node with Some v -> v | None -> raise Not_found

let children = function Element (_, _, kids) -> kids | _ -> []

let element_children node =
  List.filter (function Element _ -> true | _ -> false) (children node)

let rec text_content = function
  | Text s | Cdata s -> s
  | Comment _ | Pi _ -> ""
  | Element (_, _, kids) -> String.concat "" (List.map text_content kids)

let set_attribute key value = function
  | Element (tag, attrs, kids) ->
      let attrs =
        if List.mem_assoc key attrs then
          List.map (fun (k, v) -> if k = key then (k, value) else (k, v)) attrs
        else attrs @ [ (key, value) ]
      in
      Element (tag, attrs, kids)
  | node -> node

let remove_attribute key = function
  | Element (tag, attrs, kids) ->
      Element (tag, List.filter (fun (k, _) -> k <> key) attrs, kids)
  | node -> node

let add_child child = function
  | Element (tag, attrs, kids) -> Element (tag, attrs, kids @ [ child ])
  | node -> node

let rec map_elements f node =
  match node with
  | Element (tag, attrs, kids) -> f (Element (tag, attrs, List.map (map_elements f) kids))
  | _ -> node

let rec filter_children keep node =
  match node with
  | Element (tag, attrs, kids) ->
      Element (tag, attrs, List.map (filter_children keep) (List.filter keep kids))
  | _ -> node

let is_blank s = String.for_all is_space s

let rec normalise node =
  match node with
  | Element (tag, attrs, kids) ->
      let kids =
        List.filter_map
          (fun kid -> match kid with Comment _ -> None | _ -> Some (normalise kid))
          kids
      in
      (* Adjacent character data coalesces when a document is reparsed,
         so compare it coalesced. *)
      let rec merge = function
        | Text a :: Text b :: rest -> merge (Text (a ^ b) :: rest)
        | kid :: rest -> kid :: merge rest
        | [] -> []
      in
      let kids =
        List.filter (function Text s -> not (is_blank s) | _ -> true) (merge kids)
      in
      Element (tag, attrs, kids)
  | _ -> node

let equal a b = normalise a = normalise b
