(** Adaptive explicit Runge–Kutta integration (Dormand–Prince 5(4))
    with steady-state detection, the solver behind the fluid-flow
    approximation.

    The stepper advances an autonomous-or-not ODE [x' = f(t, x)] with
    embedded 4th/5th-order error control and declares steady state as
    soon as the derivative norm falls below a tolerance scaled by the
    solution magnitude — the fluid analogue of the residual test the
    CTMC solvers run.  The first-same-as-last structure of the tableau
    means a steady-state check after every accepted step costs no
    extra derivative evaluation. *)

type tolerances = {
  rtol : float;  (** relative local-error tolerance (default [1e-8]) *)
  atol : float;  (** absolute local-error tolerance (default [1e-12]) *)
}

val default_tolerances : tolerances

type stats = {
  steps : int;            (** accepted steps *)
  rejected : int;         (** rejected trial steps *)
  evaluations : int;      (** right-hand-side evaluations *)
  t_end : float;          (** time reached *)
  dx_norm : float;        (** [||f(t_end, x)||_inf] of the returned state *)
  reached_steady : bool;
}

exception
  Did_not_reach_steady of { steps : int; t : float; dx_norm : float }
(** The time horizon was exhausted (or the step size collapsed) before
    the derivative norm fell below tolerance — the fluid counterpart
    of {!Markov.Steady.Did_not_converge}, and reported with the same
    exit convention by the command-line front ends. *)

exception
  Step_budget_exhausted of { steps : int; t : float; error_estimate : float }
(** The [max_steps] budget ran out before steady state: a stiff model
    grinding through tiny accepted steps, distinct from the horizon
    case above so front ends can hint at the remedy (relax the
    tolerances or raise the budget).  Carries the time reached and the
    last scaled local error estimate (close to 1 means the controller
    was step-limited by accuracy, far below 1 means it was
    stability-limited). *)

val integrate :
  ?tolerances:tolerances ->
  ?steady_tol:float ->
  ?t_max:float ->
  ?max_steps:int ->
  f:(t:float -> x:float array -> dx:float array -> unit) ->
  x0:float array ->
  unit ->
  float array * stats
(** Integrate from [x0] at time 0 until steady state: the first
    accepted step with [||f||_inf <= steady_tol * max 1 ||x||_inf]
    ends the run.  [steady_tol] defaults to [min (1e3 *. rtol) 1e-3]:
    error control can only track the trajectory down to a deviation of
    about [rtol * ||x||], so the derivative norm plateaus near that
    floor and a fixed threshold below it would never fire, while a
    threshold above [1e-3] could accept the initial state itself.  An
    [rtol] above [1e-4] runs at [1e-4], and an [atol] above
    [steady_tol] runs at [steady_tol]: looser control lets the
    trajectory oscillate around the fixed point instead of settling.
    [f] writes the derivative into the array it is handed (no
    allocation per call).
    Small negative entries introduced by local truncation error are
    clamped to zero after each accepted step, keeping population
    vectors physical.

    Raises {!Did_not_reach_steady} after [t_max] (default [1e6]) time
    units, {!Step_budget_exhausted} after [max_steps] (default
    [2_000_000]) accepted steps, and [Invalid_argument] on
    non-positive tolerances.  Emits a
    ["fluid.integrate"] tracing span and sets the
    ["fluid.steps"]/["fluid.rejected_steps"] gauges when telemetry is
    enabled. *)
