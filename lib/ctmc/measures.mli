(** Reward-style measures over a probability distribution.

    Generic combinators over a distribution and explicit transition
    triples.  The PEPA layers do not use them: their throughputs select
    from {!Lts.flux} and their utilisations sum the state store
    directly.  {!distribution_distance} is what solver cross-checks
    compare distributions with. *)

val expectation : float array -> (int -> float) -> float
(** [expectation pi reward] is [sum_i pi.(i) * reward i]. *)

val probability : float array -> (int -> bool) -> float
(** Total probability of the states satisfying the predicate. *)

val flow : float array -> (int * int * float) list -> ((int * int * float) -> bool) -> float
(** [flow pi transitions select] is the steady-state rate of occurrence
    of the selected transitions: [sum pi.(src) * rate] over transitions
    for which [select] holds.  Throughput of an action type is [flow]
    over that action's transitions. *)

val mean_recurrence_time : float array -> int -> float
(** [1 / pi.(i)] expressed in expected visits; [infinity] for an
    unvisited state. *)

val distribution_distance : float array -> float array -> float
(** Total-variation-style max-norm distance between two distributions. *)
