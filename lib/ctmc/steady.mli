(** Steady-state solution of a CTMC: the probability vector [pi] with
    [pi Q = 0] and [sum pi = 1].

    Five solution methods are provided, mirroring the PEPA Workbench
    plus one Krylov method: a direct dense LU solver (exact up to
    rounding, limited to small chains), Gauss–Seidel and SOR iterations
    on the normal equations, the power method on the uniformised jump
    chain, and preconditioned BiCGStab on the replaced-row normal
    system (see {!Krylov}).

    The iterative methods run allocation-free: each sweep updates a
    preallocated candidate vector in place and the residual — itself a
    full sparse matrix–vector product — is only measured every
    [residual_stride] sweeps. *)

type method_ =
  | Direct       (** dense Gaussian elimination on [Q^T] with the
                     normalisation condition replacing one equation *)
  | Gauss_seidel
  | Sor of float (** successive over-relaxation with the given
                     relaxation parameter in (0, 2); [Sor 1.0] is
                     Gauss–Seidel.  Values above 1 can accelerate
                     slowly-mixing chains but are not universally
                     convergent (strongly cyclic chains can oscillate);
                     values below 1 damp such oscillations. *)
  | Power        (** power iteration on [P = I + Q / Lambda] *)
  | Bicgstab     (** preconditioned BiCGStab (see {!Krylov}) on the
                     replaced-row system; typically far fewer sweeps
                     than the stationary methods on slowly-mixing
                     chains, each sweep costing two matrix–vector
                     products.  On a scalar breakdown the solve falls
                     back to power iteration warm-started from the
                     Krylov candidate, and the returned stats name the
                     method that produced the answer. *)

type options = {
  tolerance : float;      (** convergence threshold on the residual
                              [||pi Q||_inf] (default [1e-12]) *)
  max_iterations : int;   (** iteration cap (default [100_000]) *)
  direct_limit : int;     (** largest chain the direct method accepts
                              (default [3000]) *)
  residual_stride : int;  (** sweeps between residual checks (default
                              [8]; clamped to at least 1).  Larger
                              strides do less measurement work per
                              sweep at the cost of up to [stride - 1]
                              extra sweeps past convergence. *)
}

val default_options : options

exception
  Did_not_converge of { method_used : method_; iterations : int; residual : float }
(** [iterations] is the exact number of sweeps performed when the cap
    was hit, regardless of the residual stride; [method_used] names the
    iteration that gave up, so callers can report solver statistics
    before exiting. *)

exception Not_solvable of string
(** Raised when the chain has no unique steady-state distribution that
    the requested method can find (e.g. an iterative method applied to a
    chain with an absorbing state, or a reducible chain given to the
    direct solver). *)

type stats = {
  method_used : method_;  (** the method that produced the answer (the
                              default policy may fall back to
                              {!Direct}) *)
  iterations : int;       (** sweeps performed; 0 for {!Direct} *)
  residual : float;       (** [||pi Q||_inf] of the returned vector *)
}

val solve :
  ?method_:method_ ->
  ?options:options ->
  ?initial:float array ->
  Ctmc.t ->
  float array
(** Compute the steady-state distribution.  The default method is
    {!Gauss_seidel} with a fallback to {!Direct} for chains within
    [direct_limit] when iteration fails to converge.

    [initial] warm-starts the iterative methods from the given vector
    instead of the uniform distribution (negative entries are clamped
    and the copy normalised; the caller's array is never modified).  A
    disaggregated lumped solution is the intended use: cross-checking
    an aggregated solve against the full chain then converges in a
    handful of sweeps.  The direct method ignores it.  Raises
    {!Not_solvable} on a dimension mismatch.

    Every method runs on the calling domain, so the result is a
    deterministic function of the chain, the method, the options and
    the warm start. *)

val solve_stats :
  ?method_:method_ ->
  ?options:options ->
  ?initial:float array ->
  Ctmc.t ->
  float array * stats
(** Like {!solve}, also reporting how the answer was obtained — the
    observability hook the benchmark harness uses to record
    iterations-to-converge. *)

val last_stats : unit -> stats option
(** Statistics of the most recent successful [solve]/[solve_stats] call
    on the calling domain, if any — the hook the CLIs and the daemon
    use to echo solver diagnostics after a run.  Kept per domain, so
    concurrent solves on different domains never see each other's
    stats. *)

val residual : Ctmc.t -> float array -> float
(** [residual c pi] is [||pi Q||_inf], the defect of a candidate
    solution. *)

val method_name : method_ -> string
(** The name the [solver:] line and span attributes print.  [Sor _]
    prints as ["sor"], without its relaxation parameter, so this is not
    a parser round trip. *)
