(** A small, dependency-free XML 1.0 subset: parsing and printing.

    The subset covers everything XMI interchange files use in practice:
    the XML declaration, comments, processing instructions, elements with
    attributes (including namespace-prefixed names, treated lexically),
    character data, CDATA sections, and the five predefined entities plus
    decimal and hexadecimal character references.  DOCTYPE declarations are
    skipped without validation.  This is the DOM-like substrate on which the
    XMI reader/writer and the metadata repository are built. *)

(** Parsed XML node.  Attribute order is preserved. *)
type t =
  | Element of string * (string * string) list * t list
  | Text of string
  | Cdata of string
  | Comment of string
  | Pi of string * string

(** Parse error with 1-based line and column of the offending character. *)
exception Parse_error of { line : int; col : int; message : string }

val parse_string : string -> t
(** [parse_string s] parses the single root element of the document [s].
    Raises {!Parse_error} on malformed input, including elements nested
    more than 512 deep (reported at the first element past the limit,
    so a hostile document cannot exhaust the stack). *)

val parse_file : string -> t
(** [parse_file path] reads and parses the document stored at [path]. *)

val parse_fragments : string -> t list
(** [parse_fragments s] parses a sequence of top-level nodes (elements,
    comments, processing instructions); useful for testing snippets that are
    not complete documents. *)

val to_string : ?decl:bool -> ?indent:int -> t -> string
(** [to_string t] renders [t].  With [decl] (default [true]) an XML
    declaration is emitted first.  [indent] (default [2]) controls pretty-
    printing; pass [0] for compact single-line output.  Mixed content
    (elements whose children include text) is never re-indented, so
    parse-print round trips preserve character data exactly. *)

val write_file : string -> t -> unit
(** [write_file path t] renders [t] with {!to_string} and stores it at
    [path]. *)

val escape_text : string -> string
(** Escape ['<'], ['>'], ['&'] for use as character data. *)

val escape_attribute : string -> string
(** Escape ['<'], ['>'], ['&'], ['"'] for use inside a double-quoted
    attribute value. *)

val equal : t -> t -> bool
(** Structural equality that normalises insignificant whitespace: pure-
    whitespace text children are dropped and comments are ignored before
    comparison.  Attribute order is significant (XMI writers are
    deterministic). *)

val name : t -> string
(** [name t] is the element name, or [""] for non-element nodes. *)

val attribute : string -> t -> string option
(** [attribute key t] looks up attribute [key] on element [t]. *)

val attribute_exn : string -> t -> string
(** Like {!attribute} but raises [Not_found]. *)

val children : t -> t list
(** Children of an element; [[]] for other node kinds. *)

val element_children : t -> t list
(** Children of [t] that are themselves elements. *)

val text_content : t -> string
(** Concatenated character data of [t] and its descendants. *)

val set_attribute : string -> string -> t -> t
(** [set_attribute key value t] returns [t] with attribute [key] bound to
    [value], replacing any previous binding and otherwise appending. *)

val remove_attribute : string -> t -> t

val add_child : t -> t -> t
(** [add_child child t] appends [child] to element [t]'s children. *)

val map_elements : (t -> t) -> t -> t
(** Bottom-up rewrite of every element in the tree. *)

val filter_children : (t -> bool) -> t -> t
(** Keep only the immediate children satisfying the predicate (recursively
    applied at every element). *)
