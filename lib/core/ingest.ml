(* UML document and rates-file ingestion, hoisted out of the two CLI
   mains so the daemon can share the sniffing logic without inheriting
   their [exit 1] calls.  The error strings reproduce the CLI messages
   byte for byte. *)

(* [label] prefixes parse errors; [model_name] names the model of a
   text document. *)
let sniff_document ~label ~model_name src =
  let looks_like_xml = String.length src > 0 && src.[0] = '<' in
  if looks_like_xml then
    try Ok (Xml_kit.Minixml.parse_string src)
    with Xml_kit.Minixml.Parse_error { line; col; message } ->
      Error (Printf.sprintf "%s: XML error at %d:%d: %s" label line col message)
  else
    try
      let activities, charts, interactions = Uml.Diagram_text.parse_document src in
      Ok (Uml.Xmi_write.document_to_xml ~model_name ~interactions activities charts)
    with Uml.Diagram_text.Parse_error { line; message } ->
      Error (Printf.sprintf "%s: line %d: %s" label line message)

let document_of_string ~name src = sniff_document ~label:name ~model_name:name src

let document_of_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | src ->
      (* A text document's model is named after the file; errors are
         labelled with the path the user gave. *)
      sniff_document ~label:path
        ~model_name:(Filename.remove_extension (Filename.basename path))
        src
  | exception Sys_error msg -> Error msg

let rates_of_string ~name src =
  try Ok (Uml.Rates_file.of_string src)
  with Uml.Rates_file.Syntax_error { line; message } ->
    Error (Printf.sprintf "%s: line %d: %s" name line message)

let rates_of_file = function
  | None -> Ok Uml.Rates_file.empty
  | Some path -> (
      match In_channel.with_open_bin path In_channel.input_all with
      | src -> rates_of_string ~name:path src
      | exception Sys_error msg -> Error msg)
