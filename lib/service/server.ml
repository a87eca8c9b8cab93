let default_socket_path () =
  match Sys.getenv_opt "CHOREOGRAPHER_SOCKET" with
  | Some s when s <> "" -> s
  | _ ->
      let home =
        match Sys.getenv_opt "HOME" with Some h when h <> "" -> h | _ -> "."
      in
      Filename.concat home (Filename.concat ".choreographer" "daemon.sock")

type config = {
  socket_path : string;
  tcp : (string * int) option;
  workers : int;
  cache_capacity : int;
  ledger : string option;
}

(* ------------------------------------------------------------------ *)
(* Small IO helpers                                                    *)
(* ------------------------------------------------------------------ *)

let rec write_all fd bytes pos len =
  if len > 0 then begin
    let n =
      try Unix.write fd bytes pos len
      with Unix.Unix_error (Unix.EINTR, _, _) -> 0
    in
    write_all fd bytes (pos + n) (len - n)
  end

let write_string fd s = write_all fd (Bytes.of_string s) 0 (String.length s)

let ensure_parent_dir path =
  let dir = Filename.dirname path in
  if dir <> "." && dir <> "/" && not (Sys.file_exists dir) then
    try Unix.mkdir dir 0o755 with Unix.Unix_error _ -> ()

(* ------------------------------------------------------------------ *)
(* HTTP: the metrics endpoint                                          *)
(* ------------------------------------------------------------------ *)

(* Called after the sniffed "GET " has been consumed; reads the rest of
   the request head, answers, and lets the caller close the socket
   (HTTP/1.0-style one exchange per connection is all curl needs). *)
let serve_http fd =
  (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0
   with Unix.Unix_error _ -> ());
  let buf = Buffer.create 256 in
  let chunk = Bytes.create 1024 in
  (* Head terminator: blank line, tolerating bare LF from hand-rolled
     clients. *)
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
    at 0
  in
  let rec drain () =
    let seen = Buffer.contents buf in
    if
      Buffer.length buf < 8192
      && not (contains seen "\r\n\r\n")
      && not (contains seen "\n\n")
    then
      match Unix.read fd chunk 0 (Bytes.length chunk) with
      | 0 -> ()
      | n ->
          Buffer.add_subbytes buf chunk 0 n;
          drain ()
      | exception Unix.Unix_error _ -> ()
  in
  drain ();
  let head = Buffer.contents buf in
  let target =
    match String.index_opt head ' ' with
    | Some i -> String.sub head 0 i
    | None -> ( match String.index_opt head '\r' with
               | Some i -> String.sub head 0 i
               | None -> head)
  in
  let status, content_type, body =
    match target with
    | "/metrics" | "/metrics/" ->
        ( "200 OK",
          "text/plain; version=0.0.4",
          Obs.Sink.prometheus (Obs.Metrics.snapshot ()) )
    | "/stats" | "/stats/" -> ("200 OK", "application/json", "")
    | _ -> ("404 Not Found", "text/plain", "not found: try /metrics\n")
  in
  (status, content_type, body)

(* ------------------------------------------------------------------ *)
(* The server                                                          *)
(* ------------------------------------------------------------------ *)

type t = {
  config : config;
  engine : Engine.t;
  listeners : Unix.file_descr list;
  stop : bool Atomic.t;
  socket_unlinked : bool Atomic.t;
}

(* Remove the socket file exactly once — at shutdown initiation, so by
   the time a client sees the shutdown acknowledgement the path is free
   for a successor daemon to bind (the old process may linger a beat
   draining its workers). *)
let unlink_socket t =
  if not (Atomic.exchange t.socket_unlinked true) then
    try Unix.unlink t.config.socket_path with Unix.Unix_error _ -> ()

let initiate_stop t =
  Atomic.set t.stop true;
  unlink_socket t

let emit_ledger t (outcome : Engine.outcome) before =
  match (t.config.ledger, before) with
  | None, _ | _, None -> ()
  | Some path, Some before -> (
      let scoped = Obs.Metrics.diff_snapshots before (Obs.Metrics.scalar_snapshot ()) in
      try
        Obs.Ledger.emit_now ~path ~tool:outcome.Engine.tool
          ~model:outcome.Engine.model_name ~model_hash:outcome.Engine.model_hash
          ~options:outcome.Engine.option_pairs ~stages:outcome.Engine.stages
          ~counters:scoped.Obs.Metrics.counters ~gauges:scoped.Obs.Metrics.gauges
          ~exit_status:outcome.Engine.status ()
      with Sys_error _ | Unix.Unix_error _ -> ())

let process t payload =
  match Protocol.request_of_json (Obs.Json.of_string payload) with
  | exception Obs.Json.Parse_error msg ->
      Protocol.Error_response
        { code = 1; message = Printf.sprintf "error: request is not JSON: %s\n" msg }
  | exception Protocol.Protocol_error msg ->
      Protocol.Error_response
        { code = 1; message = Printf.sprintf "error: invalid request: %s\n" msg }
  | request ->
      (* A ledger record keeps only the request's counter and gauge
         deltas, so only those are snapshotted, and only when a ledger
         is configured: a full snapshot copies every retained series
         point. *)
      let before = Option.map (fun _ -> Obs.Metrics.scalar_snapshot ()) t.config.ledger in
      let outcome = Engine.handle t.engine request in
      (match request with
      | Protocol.Stats | Protocol.Shutdown -> ()
      | _ -> emit_ledger t outcome before);
      (match request with Protocol.Shutdown -> initiate_stop t | _ -> ());
      outcome.Engine.response

let handle_connection t fd =
  let finally () = try Unix.close fd with Unix.Unix_error _ -> () in
  Fun.protect ~finally @@ fun () ->
  try
    let rec loop () =
      match Frame.read_exact fd 4 with
      | None -> ()
      | Some "GET " ->
          let status, content_type, body = serve_http fd in
          let body =
            if body = "" && status = "200 OK" then
              Obs.Json.to_string ~pretty:true (Engine.stats_json t.engine) ^ "\n"
            else body
          in
          write_string fd
            (Printf.sprintf
               "HTTP/1.0 %s\r\nContent-Type: %s\r\nContent-Length: %d\r\n\
                Connection: close\r\n\r\n%s"
               status content_type (String.length body) body)
      | Some header ->
          let payload = Frame.read_payload fd ~header in
          let response = process t payload in
          Frame.write fd (Obs.Json.to_string (Protocol.response_to_json response));
          if not (Atomic.get t.stop) then loop ()
    in
    loop ()
  with
  | Frame.Frame_error _ | Unix.Unix_error _ | Obs.Json.Parse_error _ -> ()
  (* Anything else escaping one request ends that connection and no
     more: escaping the connection's domain, it would be re-raised by
     [Domain.join] in the accept loop and end the daemon. *)
  | exn -> Obs.Log.info "connection dropped: %s" (Printexc.to_string exn)

(* Connections are served by domains spawned on demand, one per
   accepted connection and at most [workers] at a time, each ending with
   its connection.  Every live domain takes part in each stop-the-world
   collection (one blocked in a system call through its backup thread),
   so the daemon keeps none idle.  A finishing domain writes a byte to a
   pipe the accept loop watches beside the listeners, so a connection
   held back at the limit is accepted as soon as one ends, and the loop
   sees a shutdown at once. *)
let serve t ~workers =
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  let live = ref [] in
  let reap () =
    let finished, running = List.partition (fun (_, finished) -> Atomic.get finished) !live in
    List.iter (fun (domain, _) -> Domain.join domain) finished;
    live := running
  in
  let spawn client =
    let finished = Atomic.make false in
    let signal () =
      Atomic.set finished true;
      try ignore (Unix.write_substring wake_w "x" 0 1) with Unix.Unix_error _ -> ()
    in
    match
      Domain.spawn (fun () -> Fun.protect ~finally:signal (fun () -> handle_connection t client))
    with
    | domain -> live := (domain, finished) :: !live
    | exception Failure msg ->
        Obs.Log.info "connection refused: %s" msg;
        (try Unix.close client with Unix.Unix_error _ -> ())
  in
  let accept listener =
    match Unix.accept ~cloexec:true listener with
    | client, _ ->
        (try Unix.clear_nonblock client with Unix.Unix_error _ -> ());
        spawn client
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  in
  let drain = Bytes.create 64 in
  while not (Atomic.get t.stop) do
    reap ();
    let listening = if List.length !live < workers then t.listeners else [] in
    match Unix.select (wake_r :: listening) [] [] (-1.0) with
    | ready, _, _ ->
        if List.mem wake_r ready then
          (try ignore (Unix.read wake_r drain 0 (Bytes.length drain))
           with Unix.Unix_error _ -> ());
        List.iter
          (fun listener ->
            if List.mem listener ready && List.length !live < workers then accept listener)
          listening
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  List.iter (fun (domain, _) -> Domain.join domain) !live;
  Unix.close wake_r;
  Unix.close wake_w

let make_unix_listener path =
  ensure_parent_dir path;
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.listen fd 64;
  Unix.set_nonblock fd;
  fd

let make_tcp_listener (host, port) =
  let addr =
    try Unix.inet_addr_of_string host
    with Failure _ -> (
      try (Unix.gethostbyname host).Unix.h_addr_list.(0)
      with Not_found -> Unix.inet_addr_loopback)
  in
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (addr, port));
  Unix.listen fd 64;
  Unix.set_nonblock fd;
  fd

let run ?(on_ready = fun () -> ()) config =
  Obs.Config.enable ();
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let unix_listener = make_unix_listener config.socket_path in
  let listeners =
    unix_listener :: (match config.tcp with Some hp -> [ make_tcp_listener hp ] | None -> [])
  in
  let workers = max 1 config.workers in
  let t =
    {
      config;
      engine = Engine.create ~cache_capacity:config.cache_capacity ();
      listeners;
      stop = Atomic.make false;
      socket_unlinked = Atomic.make false;
    }
  in
  on_ready ();
  serve t ~workers;
  List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) listeners;
  unlink_socket t
