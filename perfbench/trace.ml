(* The benchmark's own spans: one per call into a layer's public
   functions, recorded in memory and handed back when the run ends.
   Nothing here touches the program's telemetry ([Obs.Span]), so the
   traced run measures the program as it ships. *)

type span = {
  id : int;
  parent : int;  (** -1 at the top of an op *)
  op : int;
  name : string;  (** "<layer>.<call>", e.g. "pepanet.derive" *)
  t0 : float;
  t1 : float;
  words : float;  (** words allocated inside the span, children included *)
}

let finished : span list ref = ref []
let open_spans : int list ref = ref []
let next_id = ref 0
let op = ref 0

let words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let span name f =
  let id = !next_id in
  incr next_id;
  let parent = match !open_spans with p :: _ -> p | [] -> -1 in
  open_spans := id :: !open_spans;
  let w0 = words () in
  let t0 = Obs.Clock.now () in
  let close () =
    let t1 = Obs.Clock.now () in
    let w1 = words () in
    open_spans := List.tl !open_spans;
    finished := { id; parent; op = !op; name; t0; t1; words = w1 -. w0 } :: !finished
  in
  match f () with
  | v ->
      close ();
      v
  | exception e ->
      close ();
      raise e

(* A span whose interval was measured elsewhere (a stage time the
   engine reports), placed under [parent]. *)
let record ~parent ~name ~t0 ~t1 =
  let id = !next_id in
  incr next_id;
  finished := { id; parent; op = !op; name; t0; t1; words = 0.0 } :: !finished

let take () =
  let spans = List.rev !finished in
  finished := [];
  spans
