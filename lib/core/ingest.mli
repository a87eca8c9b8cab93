(** Model ingestion shared by the command-line front ends and the
    daemon: XML-vs-text sniffing for UML documents and rates-file
    loading, returning [result] instead of exiting — a bad upload from
    a daemon client must fail the request, never the process.  The
    error strings are exactly the messages the one-shot CLIs printed
    before this module existed, so hoisting them here changed no
    output byte. *)

val document_of_string : name:string -> string -> (Xml_kit.Minixml.t, string) result
(** Sniff a UML document source: content starting with ['<'] parses as
    XMI, anything else as the plain-text notation of
    {!Uml.Diagram_text} (converted to XMI at the door so the rest of
    the pipeline is uniform).  [name] is the document's path as the
    user gave it: it labels parse errors, and a text document's model
    is named after its basename without extension (a bare name without
    an extension names the model as it is). *)

val document_of_file : string -> (Xml_kit.Minixml.t, string) result
(** {!document_of_string} on a file's contents, named by [path].  A
    missing or unreadable file is an [Error] carrying the system's
    message. *)

val rates_of_string : name:string -> string -> (Uml.Rates_file.t, string) result
(** Parse [activity = rate] lines; [name] labels syntax errors. *)

val rates_of_file : string option -> (Uml.Rates_file.t, string) result
(** [None] is the empty rates book (the CLI's omitted [--rates]). *)
