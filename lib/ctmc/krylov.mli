(** Krylov-subspace steady-state solver: preconditioned BiCGStab on the
    singular system [pi Q = 0] with the normalisation constraint.

    The singular system is made nonsingular by row replacement: work
    with [A = Q^T] whose {e first} row — the balance equation of the
    initial state, reliably a high-probability one, which keeps the
    replaced system well conditioned (replacing a negligible-probability
    state's equation stalls the Krylov process around 1e-4 at 10^6
    states) — is replaced by [gamma] times the all-ones row, and
    right-hand side [b = gamma * e_0], where [gamma] is the mean exit
    rate over [sqrt n] so the normalisation row sits at the same
    magnitude as the generator rows.  A solution of [A x = b] is an
    unnormalised steady vector with unit mass.  A forward Gauss-Seidel
    triangular solve [K = D + L] on the transposed generator is applied
    as the right preconditioner.

    Each BiCGStab sweep costs two sparse matrix–vector products and two
    preconditioner solves (each one CSR pass), plus a handful of dot
    products and vector updates.  Unlike the stationary methods, the
    iteration count is typically O(sqrt) of theirs on slowly-mixing
    chains.

    Robustness: a stall watchdog restarts the process when the residual
    fails to improve 10% across a 250-sweep window; every 128 sweeps
    the recursive residual is resynced against the true [b - A x] and
    a restart is forced when they disagree by more than 4x (the
    recursion otherwise converges on fiction); a step whose inf-norm
    dwarfs the unit-scale solution is refused before it wrecks the
    iterate; and restarts resume from the best iterate seen, which is
    also the candidate a failed solve reports.

    Determinism: the solve is sequential, and every floating-point
    reduction (dot products, norms, the normalisation sum) folds
    per-chunk partials over a fixed 16,384-entry grid in chunk order —
    the result is a function of the chain alone, the same at every
    [--jobs], which is what lets CI diff [--jobs N] runs byte for
    byte. *)

type outcome =
  | Converged  (** residual met the tolerance *)
  | Breakdown of string
      (** the solve could not proceed: a non-finite value appeared, a
          BiCGStab scalar ([rho], [(r_hat, v)], [(t, t)] or [omega])
          collapsed within rounding of zero more often than the restart
          budget allows, or the inner residual stagnated without
          true-defect progress.  A collapsed scalar alone is first
          retried by restarting the process from the current iterate
          with a fresh shadow residual — the standard cure for the
          shadow residual drifting orthogonal — so only persistent
          degeneracy surfaces here.  The candidate is still usable as a
          warm start for a fallback method; the string names the
          quantity that broke down. *)
  | No_convergence  (** iteration cap hit before the tolerance *)

type result = {
  pi : float array;
      (** best candidate: clamped at zero and normalised to unit mass
          (the uniform distribution if the candidate collapsed) *)
  iterations : int;  (** BiCGStab sweeps performed *)
  residual : float;  (** [||pi Q||_inf] of the returned [pi] *)
  outcome : outcome;
}

val bicgstab :
  ?initial:float array ->
  tolerance:float ->
  max_iterations:int ->
  Ctmc.t ->
  result
(** Solve for the steady-state distribution of an irreducible chain.
    [initial] must already be a distribution candidate (positive mass);
    callers normalise/clamp before passing it.  The chain must have no
    absorbing state (the caller checks, as for the other iterative
    methods).  Publishes the shared solver telemetry: the
    ["solver_residual"] gauge and ["solver.residual_trajectory"] series
    per sweep, and ["solver.sweep_s"] per sweep. *)
