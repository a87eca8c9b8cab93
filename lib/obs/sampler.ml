(* The background sampler: one dedicated domain that polls process
   health at a fixed interval while a solve runs, turning the former
   end-of-phase aggregates into (time, value) series.  The sampler
   must keep ticking *during* a phase, so it owns a single
   [Domain.spawn]ed domain and relies on {!Metrics} being domain
   safe.

   Built-in samples per tick (x is monotonic seconds since process
   start):
     sampler.heap_words            major heap size, words
     sampler.minor_collections     cumulative minor collections
     sampler.major_collections     cumulative major collections
   plus one series per probe that returns [Some y].  The
   [sampler.peak_heap_words] gauge tracks the high-water mark. *)

type probe = { series : string; sample : unit -> float option }

let gauge_probe ~series ~gauge =
  let g = Metrics.gauge gauge in
  {
    series;
    sample =
      (fun () ->
        match Metrics.gauge_value g with 0.0 -> None | v -> Some v);
  }

(* The solver publishes its residual gauge at every stride and the
   state-space builders their frontier gauge at every progress tick, so
   these two probes give residual-vs-time and frontier-vs-time curves
   for free. *)
let default_probes () =
  [
    gauge_probe ~series:"sampler.residual" ~gauge:"solver_residual";
    gauge_probe ~series:"sampler.frontier_states" ~gauge:"statespace.frontier_states";
  ]

type t = {
  stop_flag : bool Atomic.t;
  domain : unit Domain.t;
}

let default_interval_s = 0.01

let ticks = Metrics.counter "sampler.ticks"

let sample_once probes ~heap ~minor ~major ~peak =
  let x = Clock.since_origin () in
  let gc = Gc.quick_stat () in
  let hw = float_of_int (max gc.Gc.top_heap_words gc.Gc.heap_words) in
  (* A freshly spawned domain can read heap counters of 0 before its
     first allocation; a zero sample is noise, not a measurement. *)
  if hw > 0.0 then begin
    Metrics.push heap ~x ~y:hw;
    Metrics.set_max peak hw
  end;
  Metrics.push minor ~x ~y:(float_of_int gc.Gc.minor_collections);
  Metrics.push major ~x ~y:(float_of_int gc.Gc.major_collections);
  List.iter
    (fun p ->
      match p.sample () with
      | Some y -> Metrics.push (Metrics.series p.series) ~x ~y
      | None -> ())
    probes;
  Metrics.incr ticks

let start ?(interval_s = default_interval_s) ?probes () =
  if interval_s <= 0.0 then invalid_arg "Sampler.start: interval must be positive";
  let probes = match probes with Some ps -> ps | None -> default_probes () in
  let heap = Metrics.series "sampler.heap_words" in
  let minor = Metrics.series "sampler.minor_collections" in
  let major = Metrics.series "sampler.major_collections" in
  let peak = Metrics.gauge "sampler.peak_heap_words" in
  let stop_flag = Atomic.make false in
  let domain =
    Domain.spawn (fun () ->
        (* One sample immediately, so even a run shorter than the
           interval leaves a first point. *)
        sample_once probes ~heap ~minor ~major ~peak;
        (* Sleep in short slices so [stop] (and so the whole process at
           exit) never waits more than a few milliseconds for the domain
           to notice the flag. *)
        let slice = 0.005 in
        let rec doze remaining =
          if remaining > 0.0 && not (Atomic.get stop_flag) then begin
            Unix.sleepf (Float.min remaining slice);
            doze (remaining -. slice)
          end
        in
        while not (Atomic.get stop_flag) do
          doze interval_s;
          if not (Atomic.get stop_flag) then
            sample_once probes ~heap ~minor ~major ~peak
        done)
  in
  { stop_flag; domain }

let stop t =
  if not (Atomic.get t.stop_flag) then begin
    Atomic.set t.stop_flag true;
    Domain.join t.domain
  end
