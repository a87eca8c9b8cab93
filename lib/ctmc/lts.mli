(** Labelled transition systems: the one representation both state
    spaces derive and every measure is read from.

    A state-space explorer numbers its states [0 .. n-1] and emits each
    state's outgoing transitions in turn, sources in nondecreasing
    order.  The stream is stored compressed: a row-boundary array is the
    src column's run-length encoding (no src column exists), labels are
    interned into a table in first-occurrence order, and each transition
    packs destination and label id into one word next to its rate — two
    words per transition.  The CTMC, the lump partition and the
    steady-state and transient solutions are derived from it on demand
    and the first two are cached.

    The label type is the caller's: [Pepa.Action.t] for plain PEPA
    models, [Pepanet.Net_semantics.label] for PEPA nets.  Labels are
    interned with the polymorphic hash and equality, so they must be
    plain data. *)

type 'l t

(** {1 Building} *)

type 'l builder

val builder : unit -> 'l builder

val add : 'l builder -> src:int -> dst:int -> rate:float -> 'l -> unit
(** Append one transition.  Sources must arrive in nondecreasing
    order.  Raises [Invalid_argument] past 2{^14} distinct labels, the
    budget the packed word leaves above a 48-bit destination. *)

val added : 'l builder -> int
(** Transitions appended so far (for progress reports). *)

val finish : 'l builder -> n_states:int -> 'l t
(** Seal the stream over states [0 .. n_states - 1]; states that
    emitted nothing are deadlocks.  The builder must not be used
    afterwards. *)

(** {1 The stream} *)

val n_states : 'l t -> int

val n_transitions : 'l t -> int
(** O(1). *)

val labels : 'l t -> 'l array
(** The interned label table, in first-occurrence order: the label ids
    of {!flux} and of the [label] column of {!columns} index into it.
    Do not mutate. *)

val iter_row : 'l t -> int -> (label:'l -> rate:float -> dst:int -> unit) -> unit
(** The outgoing transitions of one state, in emission order. *)

val iter : 'l t -> (src:int -> label:'l -> rate:float -> dst:int -> unit) -> unit
(** Every transition, grouped by source in emission order — no list,
    no record allocation. *)

val deadlocks : 'l t -> int list
(** States with no outgoing transition, ascending. *)

val flux : 'l t -> float array -> float array
(** [flux lts pi] is the steady-state flux [sum pi(src) * rate] of
    every interned label, indexed like {!labels}: one pass over the
    stream for all labels together. *)

val sources : 'l t -> ('l -> bool) -> int list
(** Ascending states with at least one outgoing transition whose label
    satisfies the predicate (the states enabling it).  The predicate is
    applied once per interned label. *)

val targets : 'l t -> ('l -> bool) -> int list
(** Ascending states entered by at least one transition whose label
    satisfies the predicate. *)

(** {1 Derived chains} *)

val ctmc : 'l t -> Ctmc.t
(** The derived CTMC (transition rates between identical state pairs
    are summed, self-loops dropped; computed once and cached).
    Assembled from the compressed stream via {!Ctmc.of_grouped} — no
    coordinate arrays are materialised. *)

type columns = { src : int array; dst : int array; label : int array; rate : float array }

val columns : 'l t -> columns
(** The stream expanded into the flat coordinate columns
    {!Lump.refine} and {!Lump.quotient_ctmc} read: fresh [src], [dst]
    and label-id arrays, and the stream's own rate array (shared; do
    not mutate). *)

val lump_partition : 'l t -> respect:(unit -> int array) -> Lump.t
(** Coarsest ordinary lumping that refines the per-label exit
    signature and never merges states with different [respect] keys
    (see {!Lump.refine}).  Computed once and cached: [respect] is called
    only when the partition is not cached yet, and a later call
    returns the cached partition whatever key it passes. *)

val steady_state :
  ?method_:Steady.method_ ->
  ?options:Steady.options ->
  ?jobs:int ->
  ?partition:Lump.t ->
  'l t ->
  float array
(** Steady-state distribution over the stream's states.  With a
    [partition] that merges states, the solver runs on the quotient
    chain ({!Lump.quotient_ctmc}) and the result is disaggregated
    uniformly within each class — same length, same label fluxes,
    exact class sums.  Without one, or with the identity partition,
    the cached {!ctmc} is solved directly. *)

val transient : 'l t -> time:float -> float array
(** Transient distribution at [time], starting from state 0. *)

val release : 'l t -> unit
(** Drop the cached CTMC (and its transposed generator) and lump
    partition.  They are rebuilt on demand by the next accessor, so
    this only trades time for space: callers holding several large
    spaces at once use it to keep one space's CSR matrices from
    inflating the other's peak. *)
