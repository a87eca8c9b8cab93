(* [table] answers lookups in one probe; it holds each name's first
   binding, the one a scan of [bindings] would find.  It is never
   changed after [make]. *)
type t = { bindings : (string * float) list; default : float; table : (string, float) Hashtbl.t }

exception Syntax_error of { line : int; message : string }

let make bindings default =
  let table = Hashtbl.create (List.length bindings) in
  List.iter
    (fun (name, rate) -> if not (Hashtbl.mem table name) then Hashtbl.add table name rate)
    bindings;
  { bindings; default; table }

let empty = make [] 1.0

let of_string src =
  let lines = String.split_on_char '\n' src in
  let parse_line (acc, lineno) raw =
    let line =
      match String.index_opt raw '%' with
      | Some i -> String.sub raw 0 i
      | None -> raw
    in
    let line = String.trim line in
    if line = "" then (acc, lineno + 1)
    else
      match String.index_opt line '=' with
      | None -> raise (Syntax_error { line = lineno; message = "expected name = rate" })
      | Some i ->
          let name = String.trim (String.sub line 0 i) in
          let value = String.trim (String.sub line (i + 1) (String.length line - i - 1)) in
          if name = "" then
            raise (Syntax_error { line = lineno; message = "missing activity name" });
          let rate =
            match float_of_string_opt value with
            | Some v when v > 0.0 && Float.is_finite v -> v
            | Some v ->
                raise
                  (Syntax_error
                     { line = lineno; message = Printf.sprintf "rate must be positive, got %g" v })
            | None ->
                raise
                  (Syntax_error
                     { line = lineno; message = Printf.sprintf "malformed rate %S" value })
          in
          ((name, rate) :: acc, lineno + 1)
  in
  let reversed, _ = List.fold_left parse_line ([], 1) lines in
  let bindings = List.rev reversed in
  let default = Option.value ~default:1.0 (List.assoc_opt "default" bindings) in
  make (List.remove_assoc "default" bindings) default

let of_file path =
  let ic = open_in_bin path in
  let src =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  of_string src

let to_string t =
  let buf = Buffer.create 128 in
  List.iter (fun (name, rate) -> Buffer.add_string buf (Printf.sprintf "%s = %g\n" name rate))
    t.bindings;
  Buffer.add_string buf (Printf.sprintf "default = %g\n" t.default);
  Buffer.contents buf

let add t name rate = make ((name, rate) :: List.remove_assoc name t.bindings) t.default

let rate_opt t name = Hashtbl.find_opt t.table name
let rate t name = Option.value ~default:t.default (rate_opt t name)
let bindings t = t.bindings
let with_default t default = { t with default }
