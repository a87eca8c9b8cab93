type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string

(* ---------------------------------------------------------------- *)
(* Printing                                                          *)
(* ---------------------------------------------------------------- *)

let add_escaped buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

(* Integers print without a fraction; everything else keeps enough
   digits to round-trip through [float_of_string]. *)
let add_number buf v =
  if Float.is_integer v && Float.abs v < 1e15 then
    Buffer.add_string buf (Printf.sprintf "%.0f" v)
  else begin
    let s = Printf.sprintf "%.12g" v in
    if float_of_string s = v then Buffer.add_string buf s
    else Buffer.add_string buf (Printf.sprintf "%.17g" v)
  end

let to_string ?(pretty = false) t =
  let buf = Buffer.create 256 in
  let indent depth = Buffer.add_string buf (String.make (2 * depth) ' ') in
  let rec write depth = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Num v -> if Float.is_finite v then add_number buf v else Buffer.add_string buf "null"
    | Str s -> add_escaped buf s
    | Arr [] -> Buffer.add_string buf "[]"
    | Arr elements ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i e ->
            if i > 0 then Buffer.add_char buf ',';
            if pretty then begin
              Buffer.add_char buf '\n';
              indent (depth + 1)
            end;
            write (depth + 1) e)
          elements;
        if pretty then begin
          Buffer.add_char buf '\n';
          indent depth
        end;
        Buffer.add_char buf ']'
    | Obj [] -> Buffer.add_string buf "{}"
    | Obj fields ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char buf ',';
            if pretty then begin
              Buffer.add_char buf '\n';
              indent (depth + 1)
            end;
            add_escaped buf k;
            Buffer.add_string buf (if pretty then ": " else ":");
            write (depth + 1) v)
          fields;
        if pretty then begin
          Buffer.add_char buf '\n';
          indent depth
        end;
        Buffer.add_char buf '}'
  in
  write 0 t;
  Buffer.contents buf

(* ---------------------------------------------------------------- *)
(* Parsing                                                           *)
(* ---------------------------------------------------------------- *)

(* The parser recurses once per array or object level, so nesting is
   capped well below what any stack holds: a deep frame is a malformed
   request, not a reason to lose the domain that read it. *)
let max_depth = 512

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail fmt = Printf.ksprintf (fun m -> raise (Parse_error m)) fmt in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some got when got = c -> advance ()
    | Some got -> fail "expected %c at offset %d, found %c" c !pos got
    | None -> fail "expected %c at offset %d, found end of input" c !pos
  in
  let literal word value =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word then begin
      pos := !pos + String.length word;
      value
    end
    else fail "malformed literal at offset %d" !pos
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      advance ();
      match c with
      | '"' -> Buffer.contents buf
      | '\\' -> (
          if !pos >= n then fail "unterminated escape";
          let e = s.[!pos] in
          advance ();
          match e with
          | '"' -> Buffer.add_char buf '"'; go ()
          | '\\' -> Buffer.add_char buf '\\'; go ()
          | '/' -> Buffer.add_char buf '/'; go ()
          | 'b' -> Buffer.add_char buf '\b'; go ()
          | 'f' -> Buffer.add_char buf '\012'; go ()
          | 'n' -> Buffer.add_char buf '\n'; go ()
          | 'r' -> Buffer.add_char buf '\r'; go ()
          | 't' -> Buffer.add_char buf '\t'; go ()
          | 'u' ->
              if !pos + 4 > n then fail "truncated \\u escape";
              let code =
                try int_of_string ("0x" ^ String.sub s !pos 4)
                with Failure _ -> fail "malformed \\u escape at offset %d" !pos
              in
              pos := !pos + 4;
              (* UTF-8 encode the BMP code point. *)
              if code < 0x80 then Buffer.add_char buf (Char.chr code)
              else if code < 0x800 then begin
                Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
                Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
              end
              else begin
                Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
                Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
              end;
              go ()
          | c -> fail "unknown escape \\%c" c)
      | c -> Buffer.add_char buf c; go ()
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    let number_char c =
      match c with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
    in
    while !pos < n && number_char s.[!pos] do
      advance ()
    done;
    let text = String.sub s start (!pos - start) in
    match float_of_string_opt text with
    | Some v -> Num v
    | None -> fail "malformed number %S at offset %d" text start
  in
  (* Step past an opening bracket or brace found at [depth]. *)
  let open_nested depth =
    if depth >= max_depth then fail "nesting deeper than %d at offset %d" max_depth !pos;
    advance ();
    skip_ws ()
  in
  let rec parse_value depth =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '"' -> Str (parse_string ())
    | Some 'n' -> literal "null" Null
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some '[' ->
        open_nested depth;
        if peek () = Some ']' then begin
          advance ();
          Arr []
        end
        else begin
          let rec elements acc =
            let v = parse_value (depth + 1) in
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); elements (v :: acc)
            | Some ']' -> advance (); Arr (List.rev (v :: acc))
            | _ -> fail "expected , or ] at offset %d" !pos
          in
          elements []
        end
    | Some '{' ->
        open_nested depth;
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let rec fields acc =
            skip_ws ();
            let key = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value (depth + 1) in
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); fields ((key, v) :: acc)
            | Some '}' -> advance (); Obj (List.rev ((key, v) :: acc))
            | _ -> fail "expected , or } at offset %d" !pos
          in
          fields []
        end
    | Some _ -> parse_number ()
  in
  let v = parse_value 0 in
  skip_ws ();
  if !pos <> n then fail "trailing garbage at offset %d" !pos;
  v

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_float = function Num v -> Some v | _ -> None
let to_list = function Arr l -> l | _ -> []
