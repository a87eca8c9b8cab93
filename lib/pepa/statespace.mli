(** Exhaustive state-space exploration and CTMC derivation.

    The derivation graph is built breadth-first from the initial state,
    treating every distinct leaf-state vector as a CTMC state, exactly as
    in the PEPA Workbench.  The resulting labelled transition system
    retains action labels so that action-type measures (throughput) can
    be computed after the steady-state solution.

    The transitions form one {!Markov.Lts} stream labelled by action
    type ({!lts}); the CTMC, lumping, deadlocks, label fluxes and
    transient solutions are all read off it.  This module keeps what
    only a PEPA state space knows: the state store, the replica
    symmetry, and the respect key that keeps lumped solutions exact for
    its per-state measures.

    Exploration is {!Statekey.explore}, the loop PEPA nets share: this
    module supplies the codec (one field per leaf), the initial state
    and the successor generator {!Semantics} compiles from the model,
    whose action ids label the stream without hashing.  The explored states
    live in a {!Statekey.store}, one contiguous packed arena (a few
    bytes per state instead of a boxed [int array]), so exploration
    memory is dominated by the transition stream rather than the state
    store.  Accessors decode on demand. *)

type t

exception Too_many_states of int
(** Raised when exploration exceeds the [max_states] bound. *)

exception Passive_transition of { state : string; action : string }
(** Raised when a passive activity survives to the top level of the
    model: its rate is unspecified, so no CTMC exists.  The offending
    state and action are reported.  ({!Semantics.Passive_transition}.) *)

exception Mixed_rates of { state : string; action : string }
(** Raised when active and passive instances of the action meet in one
    apparent rate in the reported state.  ({!Semantics.Mixed_rates}.) *)

val build : ?max_states:int -> ?symmetry:bool -> Compile.t -> t
(** Explore the full state space (default bound: 1_000_000 states).
    Emits a ["statespace.build"] tracing span (attribute ["states"]),
    adds to the exploration metrics {!Statekey.explore} records, and
    reports progress every [Obs.Config.progress_interval] states when
    telemetry is enabled.

    With [~symmetry:true] every vector is canonicalised through
    {!Symmetry.canonicalise} before interning, so permutation-equivalent
    states of replicated components collapse to one representative.
    The reduced chain is the exact ordinary lumping of the full one:
    throughputs are unchanged and {!local_state_probability} averages
    over the leaf's orbit.  Models without replica groups explore
    identically (detection is a one-off structural pass).

    Exploration is sequential: states are numbered in first-occurrence
    breadth-first order, so the numbering and transition order depend
    on the model alone, never on the process's job count. *)

val of_model : ?max_states:int -> ?symmetry:bool -> Syntax.model -> t
val of_string : ?max_states:int -> ?symmetry:bool -> string -> t

val compiled : t -> Compile.t

val symmetry : t -> Symmetry.t
(** The replica symmetry used during the build ({!Symmetry.trivial}
    unless [~symmetry:true] found groups). *)

val n_states : t -> int

val n_transitions : t -> int
(** [Markov.Lts.n_transitions (lts t)]: O(1). *)

val state : t -> int -> int array
val state_label : t -> int -> string
val initial_index : t -> int

val lts : t -> Action.t Markov.Lts.t
(** The labelled transition stream over the explored states, in
    exploration order (grouped by source). *)

val action_names : t -> string list
(** Named action types occurring on reachable transitions, sorted.
    Read from the interned label table: O(#action types). *)

val ctmc : t -> Markov.Ctmc.t
(** [Markov.Lts.ctmc (lts t)]: the derived CTMC, cached. *)

val lump_partition : t -> Markov.Lump.t
(** Coarsest ordinary lumping of the derived chain that respects the
    per-action-type exit signature (computed once and cached by the
    stream).  Because classes never mix action signatures, throughput
    measures on the uniformly disaggregated lumped solution are exact;
    the respect key (symmetry orbits, or per-leaf local-state labels)
    keeps {!local_state_probability} exact as well. *)

val steady_state :
  ?method_:Markov.Steady.method_ ->
  ?options:Markov.Steady.options ->
  ?lump:bool ->
  t ->
  float array
(** Steady-state distribution over the explored states.  With
    [~lump:true] the solver runs on the lumped quotient chain and the
    result is disaggregated uniformly within each class — same length,
    same throughputs, exact per-class probabilities.  Chains the
    refinement cannot compress solve directly. *)

val throughput : t -> float array -> string -> float
(** [throughput space pi action] is the steady-state throughput of the
    named action type: the expected number of completions per time
    unit.  Selected from {!Markov.Lts.flux}: one pass over the stream. *)

val throughputs : t -> float array -> (string * float) list
(** Throughput of every reachable action type, sorted by name.  One
    pass over the stream for all action types together. *)

val local_state_distributions : t -> float array -> (string * float) list array
(** The marginal of every leaf: entry [leaf] pairs each distinct
    local-state label of the leaf's component, sorted, with the
    probability that the leaf is in a local state of that label (a
    component-state "utilisation" measure).  On a symmetry-reduced
    space a leaf's marginal averages over its orbit — symmetric
    replicas share one marginal — so the values match the unreduced
    model exactly.  One pass over the states fills every entry. *)

val local_state_distribution : t -> float array -> leaf:int -> (string * float) list
(** Entry [leaf] of {!local_state_distributions}, from one pass over
    the states that visits only the leaf's orbit. *)

val local_state_probability : t -> float array -> leaf:int -> label:string -> float
(** The probability of one label in {!local_state_distribution}; 0 for
    a label the leaf's component does not have. *)

val pp_summary : Format.formatter -> t -> unit
