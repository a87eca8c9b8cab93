(** Client side of the daemon protocol: connect, exchange framed JSON
    requests, close.

    Reading the files into a request and replaying the response as the
    one-shot CLI would (stdout, stderr, exit code) is the {e caller's}
    job — the [choreographer client] verbs share those front ends with
    the one-shot commands, which answer the same request in process;
    the daemon does all parsing.  This module only moves frames. *)

type conn

exception Connection_error of string
(** Connect or transport failure (daemon not running, socket missing,
    connection dropped mid-exchange).  Distinct from
    {!Protocol.Error_response}, which is the daemon {e answering} with
    an analysis error. *)

val connect : ?socket:string -> ?tcp:string * int -> unit -> conn
(** Connect over TCP when [tcp] is given, else over the Unix-domain
    socket [socket] (default {!Server.default_socket_path}). *)

val request : conn -> Protocol.request -> Protocol.response
(** One synchronous round-trip.  Raises {!Connection_error} on
    transport failure and {!Protocol.Protocol_error} on a response the
    codec cannot decode. *)

val close : conn -> unit
