(** Discrete-time Markov chains.

    The jump chain embedded in a CTMC and its uniformised chain, with
    step-by-step and fixed-point evaluation.  {!Steady}'s power method
    sweeps the uniformised generator itself and never builds one of
    these; they serve tests and small cross-checks. *)

type t

val of_rows : (int * float) list array -> t
(** [of_rows rows] builds a DTMC where [rows.(i)] lists the outgoing
    probabilities of state [i].  Each non-empty row must sum to
    (approximately) 1; an empty row denotes an absorbing state, treated
    as a self-loop.  Raises [Invalid_argument] otherwise. *)

val embedded_of_ctmc : Ctmc.t -> t
(** The jump chain of a CTMC: transition probabilities proportional to
    rates; absorbing CTMC states become DTMC self-loops. *)

val uniformised_of_ctmc : ?factor:float -> Ctmc.t -> t
(** The uniformised chain [P = I + Q / Lambda] with
    [Lambda = factor * max exit rate] ([factor] defaults to [1.02]). *)

val n_states : t -> int

val step : t -> float array -> float array
(** One application of the transition matrix to a distribution. *)

val distribution_after : t -> initial:float array -> steps:int -> float array

val steady : ?tolerance:float -> ?max_iterations:int -> t -> float array
(** Power iteration to a fixed point; raises
    [Steady.Did_not_converge] when the cap is hit (e.g. on a periodic
    chain). *)
