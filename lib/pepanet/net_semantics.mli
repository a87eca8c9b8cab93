(** The two-level operational semantics of PEPA nets.

    {b Transitions} (local moves) are ordinary PEPA activities within a
    single place: the place context evolves under Hillston's cooperation
    rule, with occupied cells contributing their token's activities
    (except those of firing type — firing actions only occur at the net
    level) and vacant cells contributing nothing.

    {b Firings} implement Definitions 2–6 of the paper:
    - an {e enabling} selects, for each input place of a transition, an
      occupied cell whose token has a one-step derivative of the firing
      type (each available derivative is a distinct enabling instance);
    - an {e output} selects a vacant, family-compatible cell of each
      output place, in the current marking;
    - {e concession} requires a type-preserving bijection φ between the
      selected tokens and output cells;
    - the {e enabling rule} suppresses firings when another transition of
      strictly higher priority has concession;
    - the {e firing rule} moves each token's derivative into its φ-cell;
      when several φ exist for an enabling they are equally likely, so
      the enabling's rate is split uniformly among them.

    The rate of an enabling follows PEPA's apparent rates and bounded
    capacity: the net transition's label and each input place act as
    cooperation participants; each place's apparent rate is the sum over
    its candidate derivative moves, each enabling takes its proportional
    share, and the total is bounded by the slowest participant. *)

type label =
  | Local of Pepa.Action.t
  | Fire of { action : string; transition : string }

type update = Set_cell of int * Marking.cell_state | Set_static of int * int

type move = { label : label; rate : Pepa.Rate.t; updates : update list }

exception Mixed_rates of { marking : string; action : string }
(** Active and passive instances of the action meet in one apparent
    rate (inside a place context, or among a firing's candidates in one
    input place) in the reported marking.  {!local_moves}, {!firings},
    {!firings_with_concession} and {!moves} raise it. *)

val local_moves : Net_compile.t -> Marking.t -> move list
(** Local PEPA activities of every place. *)

val firings : Net_compile.t -> Marking.t -> move list
(** Enabled firings after priority filtering. *)

val firings_with_concession : Net_compile.t -> Marking.t -> (Net_compile.transition * move list) list
(** All transitions with concession and their firing moves, before the
    priority-based enabling rule (exposed for tests). *)

val moves : Net_compile.t -> Marking.t -> move list
(** [local_moves @ firings]. *)

val apply : Marking.t -> update list -> Marking.t

val apparent_local_rate : Net_compile.t -> Marking.t -> place:int -> string -> Pepa.Rate.t
(** Apparent rate of a named (non-firing) action within one place. *)
