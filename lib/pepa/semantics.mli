(** The structured operational semantics of PEPA over compiled models,
    as a successor generator.

    Global states are leaf-state vectors.  {!compile} turns a
    {!Compile.t} once into numeric tables, after Ding and Hillston's
    numerical representation of PEPA: integer action ids, each
    component's moves per local state, and the cooperation tree as
    nodes with masks of their shared and hidden actions, the [<>]
    chains of [P\[n\]] flattened into one interleaving node.
    {!successors} evaluates those tables at a state: it fills a reused
    move buffer, applying Hillston's apparent-rate cooperation rule at
    each cooperation and relabelling to [tau] at each hiding, and emits
    every move with its leaf updates applied in place.

    The moves come in the order of the recursive list semantics this
    replaces: at a cooperation, the left child's solo moves, then the
    right child's, then each shared action's products in decreasing
    name order, left instances outer and right instances inner.  Rates
    use {!Rate}'s float operations in its order, so transition rates
    and state numbering are bitwise those of that semantics. *)

type t
(** A compiled model with its move buffers.  Not shareable: one
    exploration at a time. *)

exception Passive_transition of { state : string; action : string }
(** A passive activity survives to the top level of the model: its rate
    is unspecified, so no CTMC exists. *)

exception Mixed_rates of { state : string; action : string }
(** Active and passive instances of the action meet in one apparent
    rate, which has no defined value (as in the PEPA Workbench). *)

val compile : Compile.t -> t

val labels : t -> Action.t array
(** The label of every action id: the named actions in name order,
    then [tau].  {!successors} emits ids into this table. *)

val successors :
  t ->
  Action.t Markov.Lts.builder ->
  int array ->
  src:int ->
  visit:(int array -> int) ->
  unit
(** [successors t stream vec ~src ~visit] generates the moves of state
    [vec] and, for each in order, adds one transition from [src] to
    [visit next] to [stream] (a builder over {!labels}), where [next] is
    [vec] with the move's leaf updates: a reused vector, which [visit]
    must not keep.  The shape {!Statekey.explore} expects.  Raises
    {!Mixed_rates} before emitting anything from a state whose moves mix
    active and passive rates, and {!Passive_transition} at the first
    passive move. *)
