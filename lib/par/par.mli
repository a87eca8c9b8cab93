(** Domain-parallel execution built on the OCaml 5 stdlib only
    ([Domain], [Mutex], [Condition], [Atomic] — no domainslib).

    The module provides three layers:

    - cached pools of worker domains ({!pool}) driven by an epoch /
      condition-variable handshake (no work stealing, no per-task
      spawning);
    - chunked loop helpers ({!parallel_for}, {!sum_floats}) whose
      floating-point reductions are deterministic for a fixed
      [(range, pool size)] pair because partials are combined in chunk
      order — the power method's sweeps run on them;
    - a generic level-synchronous breadth-first {!Explore} engine with
      hash-sharded dedup tables whose state numbering is exactly the
      numbering the sequential first-occurrence interning would
      produce.

    All entry points are coordinator-only: they must be called from the
    domain that owns the pool, never from inside a worker body. *)

(** {1 Global jobs configuration} *)

val resolve : int -> int
(** [resolve jobs] maps a user-facing jobs count to an effective domain
    count: [0] becomes [Domain.recommended_domain_count ()], positive
    values are clamped to a small static maximum, and negative values
    raise [Invalid_argument]. *)

val set_jobs : int -> unit
(** Set the process-wide default jobs count used when an API's [?jobs]
    argument is omitted. [set_jobs 0] auto-detects. Raises
    [Invalid_argument] on negative values. *)

val jobs : unit -> int
(** The current process-wide default (initially [1] = sequential). *)

val recommended : unit -> int
(** [Domain.recommended_domain_count ()], exposed for callers that want
    to gate work on real parallelism being available. *)

(** {1 Domain pools} *)

module Pool : sig
  type t

  val size : t -> int
  (** Number of domains, the caller's included. *)
end

val pool : ?jobs:int -> unit -> Pool.t option
(** [pool ~jobs ()] returns a cached pool of [resolve jobs] domains, or
    [None] when the effective count is 1 (sequential execution — the
    caller should take its ordinary single-threaded path). Pools are
    cached per size and shut down via [at_exit]. Defaults to the
    process-wide {!jobs} value. *)

(** {1 Chunked loops}

    All helpers fall back to a direct in-place call when the range fits
    a single chunk, so they are safe (just pointless) on tiny inputs. *)

val parallel_for :
  Pool.t -> ?chunk:int -> lo:int -> hi:int -> (int -> int -> unit) -> unit
(** [parallel_for pool ~lo ~hi f] calls [f start stop] over disjoint
    sub-ranges covering [lo .. hi - 1] (at most [4 * size] chunks when
    [?chunk] is omitted). Chunks are claimed from an atomic counter, so
    the assignment of chunks to workers is nondeterministic — the body
    must only write to locations owned by its sub-range. If any worker
    raises, one of the raised exceptions is re-raised after all
    workers finished, and the pool stays usable. *)

val sum_floats : Pool.t -> lo:int -> hi:int -> (int -> int -> float) -> float
(** [sum_floats pool ~lo ~hi f] sums the partial results [f start stop]
    over the chunk grid, combining partials in chunk order — the result
    is a deterministic function of [(range, pool size, f)], independent
    of scheduling. *)

(** {1 Level-synchronous exploration} *)

module Explore : sig
  exception Limit
  (** Raised (from {!explore}) when the state count would exceed
      [max_states]; the caller translates it to its domain-specific
      "too many states" exception. *)

  type 's result = {
    states : 's array;  (** in deterministic discovery order *)
    shard_states : int array;  (** final per-shard dedup-table occupancy *)
    levels : int;  (** number of BFS levels explored *)
  }

  val explore :
    pool:Pool.t ->
    hash:('s -> int) ->
    equal:('s -> 's -> bool) ->
    expand:('s -> ('s * 'p) list) ->
    emit:(src:int -> dst:int -> 'p -> unit) ->
    ?max_states:int ->
    ?progress:(states:int -> level:int -> unit) ->
    's ->
    's result
  (** Breadth-first exploration from the initial state. Each BFS level
      runs in phases separated by pool barriers: parallel successor
      expansion over frontier chunks (read-only probes of the sharded
      dedup tables), parallel per-shard interning of this level's new
      states, then a sequential in-stream-order merge that numbers new
      states at their first occurrence and calls [emit] once per
      transition in exactly the order the sequential builder would.

      Determinism contract: [states], the numbering seen by [emit], and
      the order of [emit] calls are identical to sequential
      first-occurrence BFS interning, for any pool size and any
      scheduling. [expand] runs on worker domains and must be thread
      safe (pure over shared read-only data); exceptions it raises are
      re-raised at the earliest raising frontier position. [emit] and
      [progress] run on the coordinator. *)
end
