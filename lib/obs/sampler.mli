(** A background sampling domain: live GC and solver telemetry.

    While a solve or state-space build runs, the sampler polls
    [Gc.quick_stat] and a set of gauge probes at a fixed interval and
    pushes the readings into {!Metrics.series}, producing heap-vs-time,
    residual-vs-time and frontier-vs-time curves that the reports and
    the Chrome trace render.  Without it a 10^6-state exploration is a
    black box until it finishes.

    The sampler runs on its own [Domain], because it must tick
    {e during} a phase, and depends on {!Metrics} being domain
    safe.  It never blocks the solve: its only
    interaction is atomic metric reads and mutex-guarded series
    pushes.

    Series written every tick: [sampler.heap_words],
    [sampler.minor_collections], [sampler.major_collections], plus one
    per probe that returns a value.  The gauge
    [sampler.peak_heap_words] keeps the heap high-water mark, and the
    counter [sampler.ticks] the number of samples taken. *)

type probe = { series : string; sample : unit -> float option }
(** Each tick, [sample ()] is evaluated on the sampler domain; [Some y]
    appends [(now, y)] to the series, [None] skips the tick (e.g. a
    gauge that has not been written yet). *)

val gauge_probe : series:string -> gauge:string -> probe
(** Probe an existing gauge by name, skipping ticks while it reads
    exactly [0.0] (the registry's "never written" value). *)

val default_probes : unit -> probe list
(** [solver_residual] → [sampler.residual] and
    [statespace.frontier_states] → [sampler.frontier_states]. *)

type t

val default_interval_s : float
(** 0.01 — two orders of magnitude finer than a human-scale solve,
    coarse enough to stay invisible in profiles. *)

val start : ?interval_s:float -> ?probes:probe list -> unit -> t
(** Spawn the sampler domain.  Takes one sample immediately, then one
    per interval until {!stop}.  Metric collection must be enabled for
    the samples to be recorded.  Raises [Invalid_argument] on a
    non-positive interval. *)

val stop : t -> unit
(** Signal the domain and join it.  Idempotent. *)
