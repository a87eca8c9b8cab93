(* choreographerd: the Choreographer analysis daemon.

   Serves the framed-JSON protocol of [Service.Protocol] on a
   Unix-domain socket (and optionally TCP), with a content-hash model
   cache so repeat solves skip every clean stage, and a live
   [GET /metrics] Prometheus endpoint on the same socket.  Talk to it
   with [choreographer client ...]. *)

open Cmdliner

let socket_arg =
  Arg.(
    value
    & opt string (Service.Server.default_socket_path ())
    & info [ "s"; "socket" ] ~docv:"PATH"
        ~doc:"Unix-domain socket to listen on (default: \\$CHOREOGRAPHER_SOCKET or \
              ~/.choreographer/daemon.sock).  An existing socket file is replaced.")

let tcp_conv =
  let parse s =
    let bad () =
      Error (`Msg (Printf.sprintf "invalid TCP address %s (expected PORT or HOST:PORT)" s))
    in
    match String.rindex_opt s ':' with
    | None -> (
        match int_of_string_opt s with
        | Some port when port > 0 && port < 65536 -> Ok ("127.0.0.1", port)
        | _ -> bad ())
    | Some i -> (
        let host = String.sub s 0 i in
        let port = String.sub s (i + 1) (String.length s - i - 1) in
        match int_of_string_opt port with
        | Some port when port > 0 && port < 65536 && host <> "" -> Ok (host, port)
        | _ -> bad ())
  in
  let print fmt (host, port) = Format.fprintf fmt "%s:%d" host port in
  Arg.conv (parse, print)

let tcp_arg =
  Arg.(
    value
    & opt (some tcp_conv) None
    & info [ "tcp" ] ~docv:"[HOST:]PORT"
        ~doc:"Also listen on TCP (default host 127.0.0.1) for remote clients.")

let workers_arg =
  Arg.(
    value & opt int 4
    & info [ "workers" ] ~docv:"N"
        ~doc:"Connection-serving domains: how many clients are served concurrently.  \
              Each request runs entirely on the worker that read it.")

let cache_arg =
  Arg.(
    value & opt int 32
    & info [ "cache" ] ~docv:"N"
        ~doc:"Models kept in the content-hash cache, least recently used evicted \
              first.  Each entry retains the compiled artefacts of every stage \
              already run for that model.")

let run () socket tcp workers cache =
  if workers < 1 then begin
    Printf.eprintf "error: --workers must be at least 1\n";
    exit 2
  end;
  if cache < 1 then begin
    Printf.eprintf "error: --cache must be at least 1\n";
    exit 2
  end;
  (* The per-request ledger honours the one-shot CLIs' switches: --ledger
     PATH redirects, --no-ledger (or CHOREOGRAPHER_NO_LEDGER) disables.
     Unlike the CLIs there is no at_exit capture — the server emits one
     record per request instead. *)
  let ledger = Cli_support.daemon_ledger_path () in
  let config =
    {
      Service.Server.socket_path = socket;
      tcp;
      workers;
      cache_capacity = cache;
      ledger;
    }
  in
  let on_ready () =
    Printf.printf "choreographerd listening on %s%s (pid %d)\n%!" socket
      (match tcp with
      | Some (host, port) -> Printf.sprintf " and %s:%d" host port
      | None -> "")
      (Unix.getpid ())
  in
  Service.Server.run ~on_ready config

let () =
  let doc = "the Choreographer analysis daemon" in
  let info = Cmd.info "choreographerd" ~version:"1.0.0" ~doc in
  let term =
    Term.(
      const run $ Cli_support.telemetry_term $ socket_arg $ tcp_arg $ workers_arg
      $ cache_arg)
  in
  exit (Cli_support.eval_cli (Cmd.v info term))
