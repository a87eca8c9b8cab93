(* Preconditioned BiCGStab on the replaced-row formulation of
   [pi Q = 0]: A = Q^T with the first row — the balance equation of
   the initial state, reliably a high-probability one, which keeps the
   replaced system well conditioned — replaced by gamma * ones
   (gamma = mean exit rate / sqrt(n), so the normalisation row sits at
   the same magnitude as the generator rows), b = gamma * e_0,
   right-preconditioned by a forward Gauss-Seidel triangular solve
   K = D + L on the transposed generator.

   The solve runs sequentially: a deterministic function of the chain
   and the options alone. *)

type outcome = Converged | Breakdown of string | No_convergence

type result = { pi : float array; iterations : int; residual : float; outcome : outcome }

(* Shared solver telemetry: the registry hands back the same handles
   [Steady] uses, so the sampler and the metrics dump see one residual
   trajectory regardless of which module drove the solve. *)
let solver_residual = Obs.Metrics.gauge "solver_residual"
let residual_trajectory = Obs.Metrics.series "solver.residual_trajectory"
let sweep_seconds = Obs.Metrics.histogram "solver.sweep_s"

(* Sums fold partials over a fixed grid of [red_chunk]-entry chunks in
   chunk order.  The grid fixes the rounding of every dot product and
   norm: changing it would change the last bits of every solution. *)
let red_chunk = 16384

let chunked_sum range (a : float array) (b : float array) =
  let n = Array.length a in
  if n <= red_chunk then range a b 0 n
  else begin
    let acc = ref 0.0 in
    let start = ref 0 in
    while !start < n do
      acc := !acc +. range a b !start (min n (!start + red_chunk));
      start := !start + red_chunk
    done;
    !acc
  end

(* The chunk sums are top-level functions, so a reduction builds no
   closure. *)
let dot_range (a : float array) (b : float array) lo hi =
  let s = ref 0.0 in
  for i = lo to hi - 1 do
    s := !s +. (a.(i) *. b.(i))
  done;
  !s

let sum_range (a : float array) (_ : float array) lo hi =
  let s = ref 0.0 in
  for i = lo to hi - 1 do
    s := !s +. a.(i)
  done;
  !s

let dot a b = chunked_sum dot_range a b
let vec_sum a = chunked_sum sum_range a a

let inf_norm (a : float array) =
  let m = ref 0.0 in
  for i = 0 to Array.length a - 1 do
    let v = abs_float a.(i) in
    if v > !m then m := v
  done;
  !m

let bicgstab ?initial ~tolerance ~max_iterations c =
  let n = Ctmc.n_states c in
  let qt = Ctmc.generator_transposed c in
  (* The normalisation row is scaled to sit at the same magnitude as
     the generator rows: a bare all-ones row has 2-norm sqrt(n), which
     at 10^6 states plants one direction three orders of magnitude
     above the O(rate) cluster and stalls the Krylov process around
     1e-4.  gamma * ones keeps the row O(mean exit rate). *)
  let gamma =
    let exit = Ctmc.exit_rates c in
    let s = ref 0.0 in
    for i = 0 to n - 1 do
      s := !s +. exit.(i)
    done;
    let mean = if !s > 0.0 then !s /. float_of_int n else 1.0 in
    mean /. sqrt (float_of_int n)
  in
  (* A x: the transposed-generator product with the first component
     replaced by the scaled mass of x (the normalisation row). *)
  let apply x y =
    Sparse.mul_vec_into qt x y;
    y.(0) <- gamma *. vec_sum x
  in
  (* Forward Gauss-Seidel preconditioner: z = (D + L)^{-1} v over the
     plain transposed generator (the rank-one constraint row is left
     to the Krylov process).  Jacobi scaling alone leaves the
     preconditioned spectrum non-normal enough that BiCGStab's true
     residual stalls around 1e-4 at 10^6 states; the triangular solve
     clusters it near 1.  A zero diagonal (absorbing state in a
     malformed chain) degrades to the identity on that row.  Rows are
     sorted by column, so the strictly lower part is a prefix of each
     row and the diagonal, when stored, the entry right after it. *)
  let { Sparse.row_ptr; col_index; values; _ } = qt in
  let precond z v =
    for i = 0 to n - 1 do
      let acc = ref v.(i) in
      let k = ref row_ptr.(i) in
      let stop = row_ptr.(i + 1) in
      while !k < stop && col_index.(!k) < i do
        acc := !acc -. (values.(!k) *. z.(col_index.(!k)));
        incr k
      done;
      let diag = if !k < stop && col_index.(!k) = i then values.(!k) else 0.0 in
      z.(i) <- (if diag <> 0.0 then !acc /. diag else !acc)
    done
  in
  let x =
    match initial with
    | Some v -> Array.copy v
    | None -> Array.make n (1.0 /. float_of_int n)
  in
  let r = Array.make n 0.0 in
  let r_hat = Array.make n 0.0 in
  let p = Array.make n 0.0 in
  let p_hat = Array.make n 0.0 in
  let v = Array.make n 0.0 in
  let s = Array.make n 0.0 in
  let s_hat = Array.make n 0.0 in
  let t = Array.make n 0.0 in
  let work = Array.make n 0.0 in
  (* r = b - A x, with b = gamma * e_0. *)
  let fresh_residual () =
    apply x r;
    for i = 0 to n - 1 do
      r.(i) <- -.r.(i)
    done;
    r.(0) <- gamma +. r.(0);
    Array.blit r 0 r_hat 0 n
  in
  (* Best iterate seen, by true residual: restarts resume from it when
     the current iterate is worse, and a failed solve reports it rather
     than whatever the last (possibly wrecked) iterate happens to be. *)
  let x_best = Array.copy x in
  let best_true = ref infinity in
  fresh_residual ();
  best_true := inf_norm r;
  let obs_on = Obs.Config.enabled () in
  let record iterations res =
    if obs_on then begin
      Obs.Metrics.set solver_residual res;
      Obs.Metrics.push residual_trajectory ~x:(float_of_int iterations) ~y:res
    end
  in
  (* Clamp-and-normalise the candidate, then measure the true defect
     [||pi Q||_inf] — the convergence contract shared with the
     stationary methods, decoupled from the inner Krylov residual. *)
  let finalize_candidate src =
    let pi = Array.make n 0.0 in
    for i = 0 to n - 1 do
      if src.(i) > 0.0 then pi.(i) <- src.(i)
    done;
    let mass = vec_sum pi in
    let pi =
      if mass > 0.0 && Float.is_finite mass then begin
        let inv = 1.0 /. mass in
        for i = 0 to n - 1 do
          pi.(i) <- pi.(i) *. inv
        done;
        pi
      end
      else Array.make n (1.0 /. float_of_int n)
    in
    Sparse.mul_vec_into qt pi work;
    (pi, inf_norm work)
  in
  let finalize iterations outcome =
    let pi, residual = finalize_candidate x in
    let pi, residual =
      if residual <= tolerance then (pi, residual)
      else
        (* The current iterate missed; the best restart point may not
           have.  Report whichever candidate defends the smaller true
           defect. *)
        let pi_b, residual_b = finalize_candidate x_best in
        if residual_b < residual then (pi_b, residual_b) else (pi, residual)
    in
    record iterations residual;
    let outcome = if residual <= tolerance then Converged else outcome in
    { pi; iterations; residual; outcome }
  in
  (* The inner target tightens when the clamped candidate's true defect
     misses the tolerance (the two residuals differ by the candidate's
     mass, which hovers around 1). *)
  let target = ref tolerance in
  let iterations = ref 0 in
  let rho = ref 1.0 and alpha = ref 1.0 and omega = ref 1.0 in
  let finished = ref None in
  (* A vanishing Krylov scalar (the shadow residual drifting orthogonal
     to the true one) is recoverable: restart the process from the
     current iterate with a fresh shadow residual.  Only non-finite
     values, an exhausted restart budget, or stagnation abandon the
     solve to the caller's fallback. *)
  let max_restarts = 64 in
  let restarts = ref 0 in
  (* Stall watchdog: BiCGStab can flatline with every Krylov scalar
     still finite (shadow residual nearly orthogonal to the true one,
     updates orders of magnitude below the iterate).  If the residual
     fails to improve by 10% across a whole window, force the same
     restart the degenerate scalars take — it re-seeds the Krylov
     space from the current iterate and empirically buys more than a
     decade per restart on large ill-conditioned chains. *)
  let stall_window = 250 in
  let best = ref infinity in
  let best_at = ref 0 in
  let exception Restarted in
  let degenerate reason value =
    if not (Float.is_finite value) then begin
      finished := Some (finalize !iterations (Breakdown reason));
      raise Restarted
    end;
    if !restarts >= max_restarts then begin
      finished := Some (finalize !iterations (Breakdown reason));
      raise Restarted
    end;
    incr restarts;
    fresh_residual ();
    (* Resume from the best-known iterate: a restart never continues
       from an iterate worse than one it has already held. *)
    let cur = inf_norm r in
    if cur < !best_true then begin
      best_true := cur;
      Array.blit x 0 x_best 0 n
    end
    else begin
      Array.blit x_best 0 x 0 n;
      fresh_residual ()
    end;
    Array.fill p 0 n 0.0;
    Array.fill v 0 n 0.0;
    rho := 1.0;
    alpha := 1.0;
    omega := 1.0;
    best := infinity;
    best_at := !iterations;
    raise Restarted
  in
  record 0 (inf_norm r);
  if inf_norm r <= !target then begin
    (* Decisive when the warm start already satisfies the tolerance;
       otherwise tighten the inner target and iterate normally. *)
    let res = finalize 0 No_convergence in
    if res.outcome = Converged then finished := Some res else target := !target /. 4.0
  end;
  while !finished = None do
    if !iterations >= max_iterations then finished := Some (finalize !iterations No_convergence)
    else begin
      try
        let sweep_start = if obs_on then Obs.Clock.now () else 0.0 in
        let rho' = dot r_hat r in
        if (not (Float.is_finite rho')) || abs_float rho' < 1e-300 then degenerate "rho" rho';
        let beta = rho' /. !rho *. (!alpha /. !omega) in
        let om = !omega in
        for i = 0 to n - 1 do
          p.(i) <- r.(i) +. (beta *. (p.(i) -. (om *. v.(i))))
        done;
        precond p_hat p;
        apply p_hat v;
        let denom = dot r_hat v in
        if (not (Float.is_finite denom)) || abs_float denom < 1e-300 then
          degenerate "r_hat . v" denom;
        rho := rho';
        alpha := rho' /. denom;
        let a = !alpha in
        (* Step-size safeguard: the solution's entries live in [0, 1]
           (a clamped-and-normalised distribution), so a step whose
           inf-norm dwarfs that scale is a near-breakdown artefact
           about to wreck the iterate — restart before applying it. *)
        if abs_float a *. inf_norm p_hat > 1e3 then degenerate "alpha step" a;
        for i = 0 to n - 1 do
          x.(i) <- x.(i) +. (a *. p_hat.(i));
          s.(i) <- r.(i) -. (a *. v.(i))
        done;
        incr iterations;
        if inf_norm s <= !target then begin
          Array.blit s 0 r 0 n;
          record !iterations (inf_norm s);
          let res = finalize !iterations No_convergence in
          if res.outcome = Converged then finished := Some res
          else if !target < tolerance *. 1e-6 then
            finished := Some { res with outcome = Breakdown "stagnation" }
          else target := !target /. 4.0
        end
        else begin
          precond s_hat s;
          apply s_hat t;
          let tt = dot t t in
          let ts = dot t s in
          if (not (Float.is_finite tt)) || tt < 1e-300 then degenerate "t . t" tt;
          omega := ts /. tt;
          if (not (Float.is_finite !omega)) || abs_float !omega < 1e-300 then
            degenerate "omega" !omega;
          let om = !omega in
          if abs_float om *. inf_norm s_hat > 1e3 then degenerate "omega step" om;
          for i = 0 to n - 1 do
            x.(i) <- x.(i) +. (om *. s_hat.(i));
            r.(i) <- s.(i) -. (om *. t.(i))
          done;
          let r_inf = inf_norm r in
          record !iterations r_inf;
          if obs_on then Obs.Metrics.observe sweep_seconds (Obs.Clock.now () -. sweep_start);
          (* The recursively-updated residual drifts away from [b - A x]
             when alpha/omega grow large (heavy cancellation in the x
             updates); past a point the recursion converges on fiction.
             Resync sparsely — one extra matvec every 128 iterations —
             and restart whenever the true residual says the recursive
             one is lying by more than 4x. *)
          if !iterations land 127 = 0 then begin
            apply x work;
            let drift = ref 0.0 in
            for i = 0 to n - 1 do
              let b_i = if i = 0 then gamma else 0.0 in
              let d = abs_float (b_i -. work.(i)) in
              if d > !drift then drift := d
            done;
            if !drift > 4.0 *. (r_inf +. 1e-300) then degenerate "drift" !drift
          end;
          if r_inf <= !target then begin
            let res = finalize !iterations No_convergence in
            if res.outcome = Converged then finished := Some res
            else if !target < tolerance *. 1e-6 then
              (* The inner residual can no longer buy true-defect
                 progress: numerically stalled. *)
              finished := Some { res with outcome = Breakdown "stagnation" }
            else target := !target /. 4.0
          end
          else if r_inf < 0.9 *. !best then begin
            best := r_inf;
            best_at := !iterations
          end
          else if !iterations - !best_at >= stall_window then degenerate "stall" r_inf
        end
      with Restarted -> ()
    end
  done;
  match !finished with Some r -> r | None -> assert false
