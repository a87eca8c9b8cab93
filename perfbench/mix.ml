(* daemon_mix: the seeded request sequence, sent to a running
   choreographerd over two connections (the untraced run) or through
   [Service.Engine.handle] in-process (the traced run), and the checks
   every response must pass. *)

module P = Service.Protocol
module J = Obs.Json

(* ------------------------------------------------------------------ *)
(* Checks                                                              *)
(* ------------------------------------------------------------------ *)

(* The rows of one table of a rendered solve, e.g. "throughput:". *)
let table heading output =
  let rec rows acc = function
    | line :: rest when String.length line > 2 && String.sub line 0 2 = "  " -> (
        match String.split_on_char ' ' (String.trim line) |> List.filter (( <> ) "") with
        | [ name; v ] -> rows ((name, float_of_string v) :: acc) rest
        | _ -> List.rev acc)
    | _ -> List.rev acc
  in
  let rec find = function
    | line :: rest when line = heading -> rows [] rest
    | _ :: rest -> find rest
    | [] -> []
  in
  find (String.split_on_char '\n' output)

let throughputs = table "throughput:"

(* Values printed with six decimals agree to within rounding. *)
let close a b = abs_float (a -. b) <= 2e-6 *. Float.max 1.0 (abs_float a)

let balanced (m : Gen.model) tps =
  match List.map (fun a -> List.assoc_opt a tps) m.Gen.balanced with
  | Some first :: rest when List.for_all (function Some v -> close v first | None -> false) rest ->
      first > 0.0
  | _ -> false

type checker = {
  expected : (string, string * string) Hashtbl.t;  (** hot model -> CLI stdout, stderr *)
  wrong_reference : string option;  (** why the CLI's mm1k.pepa output is wrong *)
  cold : (string, (string * float) list) Hashtbl.t;  (** source -> cold throughputs *)
}

let read_file = Gen.read_file

(* The one-shot CLI's outputs for the hot set, written during set-up as
   <name>.out / <name>.err; mm1k.pepa must show its closed form. *)
let checker ~expect hot =
  let expected = Hashtbl.create 16 in
  List.iter
    (fun (m : Gen.model) ->
      let base = Filename.concat expect m.Gen.name in
      Hashtbl.replace expected m.Gen.name (read_file (base ^ ".out"), read_file (base ^ ".err")))
    hot;
  let mm1k = table "steady-state probability:" (fst (Hashtbl.find expected "mm1k.pepa")) in
  let wrong_reference =
    List.find_map
      (fun (i, num) ->
        let label = Printf.sprintf "Queue0.Queue%d" i in
        match List.assoc_opt label mm1k with
        | Some v when abs_float (v -. (float_of_int num /. 65.0)) <= 5e-7 -> None
        | _ -> Some (Printf.sprintf "mm1k.pepa: %s is not %d/65" label num))
      [ (0, 27); (1, 18); (2, 12); (3, 8) ]
  in
  { expected; wrong_reference; cold = Hashtbl.create 256 }

let check chk (r : Gen.request) (response : P.response) =
  match response with
  | P.Error_response { message; _ } -> Error (Gen.cls_name r.Gen.cls ^ ": " ^ String.trim message)
  | P.Ok_response { output; diagnostics; data } -> (
      let m = r.Gen.model in
      match r.Gen.cls with
      | Gen.Cached -> (
          let out, err = Hashtbl.find chk.expected m.Gen.name in
          match chk.wrong_reference with
          | Some why when m.Gen.name = "mm1k.pepa" -> Error why
          | _ ->
              if output = out && diagnostics = err then Ok ()
              else Error (m.Gen.name ^ ": cached response differs from the CLI's output"))
      | Gen.Cold ->
          let tps = throughputs output in
          Hashtbl.replace chk.cold m.Gen.source tps;
          if balanced m tps then Ok () else Error (m.Gen.name ^ ": cold solve breaks flow balance")
      | Gen.Method -> (
          let tps = throughputs output in
          match Hashtbl.find_opt chk.cold m.Gen.source with
          | Some cold
            when List.length cold = List.length tps
                 && List.for_all2 (fun (a, x) (b, y) -> a = b && close x y) cold tps ->
              Ok ()
          | _ -> Error (m.Gen.name ^ ": bicgstab re-solve disagrees with the cold solve"))
      | Gen.Sweep -> (
          let points = Option.map J.to_list (J.member "points" data) in
          let point_ok p =
            match J.member "throughputs" p with
            | Some (J.Obj tps) ->
                let v a = Option.bind (List.assoc_opt a tps) J.to_float in
                (match List.map v m.Gen.balanced with
                | Some first :: rest ->
                    List.for_all
                      (function Some x -> abs_float (x -. first) <= 1e-8 *. first | None -> false)
                      rest
                | _ -> false)
            | _ -> false
          in
          match points with
          | Some ps when List.length ps = Gen.sweep_points && List.for_all point_ok ps -> Ok ()
          | _ -> Error "sweep: missing points or unbalanced throughputs"))

(* Mean solver sweeps of the sweep points that started warm and cold. *)
let sweep_iterations responses =
  let warm = ref [] and cold = ref [] in
  List.iter
    (function
      | P.Ok_response { data; _ } -> (
          match J.member "points" data with
          | Some points ->
              List.iter
                (fun p ->
                  match (J.member "warm" p, Option.bind (J.member "iterations" p) J.to_float) with
                  | Some (J.Bool true), Some it -> warm := it :: !warm
                  | Some (J.Bool false), Some it -> cold := it :: !cold
                  | _ -> ())
                (J.to_list points)
          | None -> ())
      | P.Error_response _ -> ())
    responses;
  let mean l = if l = [] then 0.0 else List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l) in
  (mean !warm, mean !cold)

(* ------------------------------------------------------------------ *)
(* Untraced: a client of the real daemon                               *)
(* ------------------------------------------------------------------ *)

let encode request = Service.Frame.encode (J.to_string (P.request_to_json request))
let decode payload = P.response_of_json (J.of_string payload)

let send fd request =
  let frame = encode request in
  let rec go pos =
    if pos < String.length frame then
      go (pos + Unix.write_substring fd frame pos (String.length frame - pos))
  in
  go 0

let receive fd =
  match Service.Frame.read fd with
  | Some payload -> decode payload
  | None -> failwith "daemon closed the connection"

let round_trip fd request =
  send fd request;
  receive fd

let connect socket =
  let deadline = Obs.Clock.now () +. 60.0 in
  let rec attempt () =
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX socket) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when Obs.Clock.now () < deadline ->
        Unix.close fd;
        Unix.sleepf 0.002;
        attempt ()
  in
  attempt ()

(* VmRSS / VmHWM of [pid], in KiB. *)
let proc_status pid field =
  let lines = String.split_on_char '\n' (read_file (Printf.sprintf "/proc/%d/status" pid)) in
  let prefix = field ^ ":" in
  let n = String.length prefix in
  match List.find_opt (fun l -> String.length l > n && String.sub l 0 n = prefix) lines with
  | Some l -> float_of_string (List.hd (List.filter (( <> ) "") (String.split_on_char ' ' (String.trim (String.sub l n (String.length l - n))))))
  | None -> failwith ("no " ^ field ^ " in /proc status")

let stats_counts fd =
  match round_trip fd P.Stats with
  | P.Ok_response { data; _ } ->
      let cache = Option.value ~default:data (J.member "cache" data) in
      let num k = Option.value ~default:0.0 (Option.bind (J.member k cache) J.to_float) in
      (num "hits", num "misses", num "evictions")
  | P.Error_response _ -> failwith "stats failed"

type client_result = {
  t_primed : float;  (** monotonic time the daemon answered stats and the hot set was loaded *)
  phase_s : float;  (** wall time of the whole sequence *)
  latencies : float array;  (** seconds, sequence order *)
  outcomes : (unit, string) result array;
  responses : P.response list;
  rss_start_kib : float;
  rss_end_kib : float;
  hwm_kib : float;
  hits : float;
  misses : float;
  evictions : float;
}

(* Connect (waiting for the daemon to bind), check it answers stats,
   prime the hot set, send [sequence] over two connections in a closed
   loop, read the daemon's memory, and shut it down. *)
let client ~socket ~pid ~chk ~hot sequence =
  let a = connect socket in
  ignore (stats_counts a);
  (* A wrong answer here repeats in every cached request, which the
     checks count. *)
  List.iter (fun m -> ignore (round_trip a (Gen.solve_request m))) hot;
  let t_primed = Obs.Clock.now () in
  let rss_start_kib = proc_status pid "VmRSS" in
  let b = connect socket in
  let requests = Array.of_list sequence in
  let n = Array.length requests in
  let latencies = Array.make n 0.0 in
  let responses = Array.make n (P.Error_response { code = 0; message = "not sent" }) in
  let pending = Hashtbl.create 2 in
  let next = ref 0 in
  let issue fd =
    if !next < n then begin
      let i = !next in
      incr next;
      Hashtbl.replace pending fd (i, Obs.Clock.now ());
      send fd requests.(i).Gen.request
    end
  in
  let t_start = Obs.Clock.now () in
  issue a;
  issue b;
  while Hashtbl.length pending > 0 do
    let fds = Hashtbl.fold (fun fd _ acc -> fd :: acc) pending [] in
    let ready, _, _ =
      try Unix.select fds [] [] (-1.0) with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    List.iter
      (fun fd ->
        let i, t0 = Hashtbl.find pending fd in
        Hashtbl.remove pending fd;
        responses.(i) <- receive fd;
        latencies.(i) <- Obs.Clock.now () -. t0;
        issue fd)
      ready
  done;
  let phase_s = Obs.Clock.now () -. t_start in
  let hwm_kib = proc_status pid "VmHWM" in
  let rss_end_kib = proc_status pid "VmRSS" in
  let hits, misses, evictions = stats_counts a in
  Unix.close b;
  (match round_trip a P.Shutdown with
  | P.Ok_response _ -> ()
  | P.Error_response _ -> failwith "shutdown refused");
  Unix.close a;
  let outcomes = Array.mapi (fun i r -> check chk requests.(i) r) responses in
  {
    t_primed;
    phase_s;
    latencies;
    outcomes;
    responses = Array.to_list responses;
    rss_start_kib;
    rss_end_kib;
    hwm_kib;
    hits;
    misses;
    evictions;
  }

(* ------------------------------------------------------------------ *)
(* Traced: the same sequence through the engine in-process             *)
(* ------------------------------------------------------------------ *)

(* Each request is op [i] of the trace: a span around
   [Engine.handle] named after its class, with the engine's reported
   stages as child spans laid end to end from its start.  Returns each
   request's client-side codec time (encode + decode) and check. *)
let traced ~chk ~hot sequence =
  (* As [Server.run]: collection on, a default-sized cache. *)
  Obs.Config.enable ();
  Par.set_jobs 1;
  let engine = Service.Engine.create () in
  List.iter (fun m -> ignore (Service.Engine.handle engine (Gen.solve_request m))) hot;
  let traced_one i (r : Gen.request) =
    Trace.op := i;
    let t0 = Obs.Clock.now () in
    let frame = encode r.Gen.request in
    let t_enc = Obs.Clock.now () -. t0 in
    ignore (Sys.opaque_identity frame);
    let outcome =
      Trace.span ("service.engine." ^ Gen.cls_name r.Gen.cls) (fun () ->
          Service.Engine.handle engine r.Gen.request)
    in
    let engine_span = List.hd !Trace.finished in
    let at = ref engine_span.Trace.t0 in
    List.iter
      (fun (stage, seconds) ->
        Trace.record ~parent:engine_span.Trace.id ~name:("service.stage." ^ stage) ~t0:!at
          ~t1:(!at +. seconds);
        at := !at +. seconds)
      outcome.Service.Engine.stages;
    let payload = J.to_string (P.response_to_json outcome.Service.Engine.response) in
    let t1 = Obs.Clock.now () in
    let response = decode payload in
    let t_dec = Obs.Clock.now () -. t1 in
    (t_enc +. t_dec, check chk r response)
  in
  List.mapi traced_one sequence
