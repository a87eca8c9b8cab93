(** The choreographerd server loop: listeners, worker domains, and the
    live metrics endpoint, wrapped around an {!Engine}.

    One Unix-domain socket (and optionally one TCP socket) carries two
    protocols, told apart by the first four bytes of each exchange: a
    frame header (see {!Frame}) starts a framed JSON request/response
    session, while ["GET "] starts a plain HTTP exchange answered with
    the metrics registry in Prometheus exposition format (scrape
    [GET /metrics] with [curl --unix-socket]).

    Concurrency model: the calling domain accepts connections and
    spawns one domain per connection, at most [workers] at a time, which
    serves every request on that connection and ends with it; so
    distinct models solve in parallel, and no domain is kept idle.  A
    connection beyond the limit waits to be accepted until one ends.  An
    exception escaping one request closes that connection. *)

type config = {
  socket_path : string;
  tcp : (string * int) option;  (** bind address and port, e.g. ("127.0.0.1", 4747) *)
  workers : int;  (** connections served at once (clamped to at least 1) *)
  cache_capacity : int;  (** compiled models kept by the LRU cache *)
  ledger : string option;  (** per-request flight records appended here;
                               [None] disables recording *)
}

val default_socket_path : unit -> string
(** [$CHOREOGRAPHER_SOCKET] if set, else [~/.choreographer/daemon.sock]. *)

val run : ?on_ready:(unit -> unit) -> config -> unit
(** Serve until a [shutdown] request arrives, then join the domains of
    the connections still open and return.  [on_ready] fires
    once the listeners are bound — the hook
    the daemon uses to announce readiness and tests use to
    synchronise.  Enables telemetry collection (the metrics endpoint
    is meaningless without it), installs nothing [at_exit], removes
    the socket file on return.  Raises [Unix.Unix_error] if a listener
    cannot be bound. *)
