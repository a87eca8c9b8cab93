(** Reachability graph of a PEPA net and its derived CTMC, treating each
    marking as a distinct state (as in the paper's Section 2.2).

    The transitions form one {!Markov.Lts} stream labelled by local
    action or firing ({!lts}); the CTMC, lumping, deadlocks, label
    fluxes ({!Net_measures} selects from them) and transient solutions
    are all read off it.  This module keeps what only a marking graph
    knows: the explored markings, the interchangeable-cell symmetry,
    and the respect key that keeps lumped solutions exact per
    marking.

    Exploration is {!Pepa.Statekey.explore}, the loop plain PEPA
    models share: this module supplies the marking codec, the initial
    marking and the successor function of {!Net_semantics}.  Markings
    are kept as packed keys in a {!Pepa.Statekey.store}, a few bytes
    each: exploration decodes each marking from its key when it expands
    it, and {!marking} decodes one on demand. *)

type t

exception Too_many_markings of int

exception Passive_firing of { marking : string; label : string }
(** A passive activity (local or firing) survived with no active
    participant to set its rate: the model is incomplete. *)

exception Mixed_rates of { marking : string; action : string }
(** Active and passive instances of the action meet in one apparent
    rate in the reported marking.  ({!Net_semantics.Mixed_rates}.) *)

val build : ?max_markings:int -> ?symmetry:bool -> Net_compile.t -> t
(** With [~symmetry:true], interchangeable cells — cell leaves of the
    same token family composed in one same-set cooperation chain of a
    place's context — have their contents sorted before each marking is
    interned, so markings differing only by a permutation of
    indistinguishable cells collapse to one representative.  Tokens keep
    their identity and place, so token- and place-level measures are
    exact; the reduction is the marking-graph analogue of
    {!Pepa.Statespace.build}'s replica symmetry ({!cell_symmetry}) and
    adds to the same ["statespace.canonical_hits"] counter.

    As in {!Pepa.Statespace.build}, exploration is sequential and
    numbers markings in first-occurrence breadth-first order.  Emits a
    ["net_statespace.build"] span (attribute ["markings"]) and adds to
    the exploration metrics {!Pepa.Statekey.explore} records. *)

val cell_symmetry : Net_compile.t -> Pepa.Symmetry.t
(** The interchangeable cells of a compiled net as {!Pepa.Symmetry}
    groups of one-position replicas over the marking vector (a field
    per cell, then one per static component).  A cell's field is 0
    when it is empty and [1 + token * states + state] when it holds a
    token, where [states] counts its family's local states; a group's
    cells share a family, so sorting the fields orders their contents
    as [compare] on {!Marking.cell_state} does.  Trivial when no place
    has two interchangeable cells. *)

val of_string : ?max_markings:int -> ?symmetry:bool -> string -> t
val of_file : ?max_markings:int -> ?symmetry:bool -> string -> t

val compiled : t -> Net_compile.t
val n_markings : t -> int

val n_transitions : t -> int
(** [Markov.Lts.n_transitions (lts t)]: O(1). *)

val marking : t -> int -> Marking.t
(** Decoded from its packed key: a fresh marking per call. *)

val marking_label : t -> int -> string
val initial_index : t -> int

val lts : t -> Net_semantics.label Markov.Lts.t
(** The labelled transition stream over the explored markings, in
    exploration order (grouped by source). *)

val lump_partition : t -> Markov.Lump.t
(** Coarsest ordinary lumping of the marking chain respecting the
    per-label exit signature (computed once and cached by the stream),
    with each marking's canonical form as the respect key; see
    {!Pepa.Statespace.lump_partition}. *)

val steady_state :
  ?method_:Markov.Steady.method_ ->
  ?options:Markov.Steady.options ->
  ?lump:bool ->
  t ->
  float array
(** Steady-state distribution over the markings; with [~lump:true] the
    solve runs on the lumped quotient and is disaggregated uniformly,
    preserving every label flux exactly. *)

val action_names : t -> string list
(** All named action types on reachable transitions, local and firing,
    sorted.  Read from the interned label table. *)

val pp_summary : Format.formatter -> t -> unit
