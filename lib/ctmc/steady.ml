type method_ = Direct | Gauss_seidel | Sor of float | Power | Bicgstab

type options = {
  tolerance : float;
  max_iterations : int;
  direct_limit : int;
  residual_stride : int;
}

let default_options =
  { tolerance = 1e-12; max_iterations = 100_000; direct_limit = 3000; residual_stride = 8 }

exception Did_not_converge of { method_used : method_; iterations : int; residual : float }
exception Not_solvable of string

let method_name = function
  | Direct -> "direct"
  | Gauss_seidel -> "gauss-seidel"
  | Sor _ -> "sor"
  | Power -> "power"
  | Bicgstab -> "bicgstab"

type stats = { method_used : method_; iterations : int; residual : float }

(* Per domain: the daemon's worker domains solve different models at
   once, and each must read back the stats of its own solve. *)
let last = Domain.DLS.new_key (fun () -> None)
let last_stats () = Domain.DLS.get last

(* Telemetry handles (all no-ops while collection is disabled). *)
let solver_iterations = Obs.Metrics.counter "solver_iterations"
let solver_residual = Obs.Metrics.gauge "solver_residual"
let residual_trajectory = Obs.Metrics.series "solver.residual_trajectory"
let sweep_seconds = Obs.Metrics.histogram "solver.sweep_s"

let residual c pi =
  let qt = Ctmc.generator_transposed c in
  let defect = Sparse.mul_vec qt pi in
  let m = ref 0.0 in
  for i = 0 to Array.length defect - 1 do
    let a = abs_float defect.(i) in
    m := if !m >= a then !m else a
  done;
  !m

let normalise_into pi =
  let total = ref 0.0 in
  for i = 0 to Array.length pi - 1 do
    total := !total +. pi.(i)
  done;
  let total = !total in
  if total <= 0.0 then raise (Not_solvable "iteration collapsed to the zero vector");
  let inv = 1.0 /. total in
  for i = 0 to Array.length pi - 1 do
    pi.(i) <- pi.(i) *. inv
  done

(* --------------------------------------------------------------- *)
(* Direct method                                                    *)
(* --------------------------------------------------------------- *)

let solve_direct options c =
  let n = Ctmc.n_states c in
  if n > options.direct_limit then
    raise
      (Not_solvable
         (Printf.sprintf "chain has %d states, above the direct solver limit of %d" n
            options.direct_limit));
  if n = 0 then [||]
  else begin
    (* Solve Q^T pi = 0 with the last equation replaced by sum pi = 1. *)
    let a = Sparse.to_dense (Ctmc.generator_transposed c) in
    let b = Array.make n 0.0 in
    for j = 0 to n - 1 do
      a.(n - 1).(j) <- 1.0
    done;
    b.(n - 1) <- 1.0;
    let pi =
      try Dense.lu_solve a b
      with Dense.Singular _ ->
        raise (Not_solvable "singular system: the chain has no unique steady state")
    in
    (* Clamp tiny negative values produced by rounding. *)
    let pi = Array.map (fun v -> if v < 0.0 && v > -1e-9 then 0.0 else v) pi in
    normalise_into pi;
    pi
  end

(* --------------------------------------------------------------- *)
(* Iterative methods on Q^T pi = 0                                  *)
(* --------------------------------------------------------------- *)

let check_no_absorbing c =
  for i = 0 to Ctmc.n_states c - 1 do
    if Ctmc.is_absorbing c i then
      raise
        (Not_solvable
           (Printf.sprintf "state %d is absorbing; use the direct method for reducible chains" i))
  done

(* Allocation-free iteration driver.  [sweep] advances the candidate one
   step in place (it may use [work] as scratch space and must leave the
   new candidate in [pi]).  The residual — a full sparse matrix-vector
   product — is only measured every [residual_stride] sweeps, which
   roughly halves the cost per iteration for stationary methods whose
   sweep is itself one pass over the matrix.  The iteration count
   reported on failure is the exact number of sweeps performed. *)
(* A warm start must still be a distribution candidate: negative
   entries are clamped, then the copy is normalised.  The mass check
   must come before [normalise_into], whose collapse message would
   blame the iteration for a bad argument. *)
let prepare_initial n initial =
  match initial with
  | None -> Array.make n (1.0 /. float_of_int n)
  | Some v ->
      if Array.length v <> n then
        raise (Not_solvable "warm-start vector has the wrong dimension");
      let pi = Array.make n 0.0 in
      let mass = ref 0.0 in
      for i = 0 to n - 1 do
        let x = if v.(i) > 0.0 then v.(i) else 0.0 in
        pi.(i) <- x;
        mass := !mass +. x
      done;
      if !mass <= 0.0 then raise (Not_solvable "warm-start vector has no positive mass");
      normalise_into pi;
      pi

let iterate ?initial ~method_ ~options ~c ~sweep () =
  let n = Ctmc.n_states c in
  let qt = Ctmc.generator_transposed c in
  let pi = prepare_initial n initial in
  let work = Array.make n 0.0 in
  let defect = Array.make n 0.0 in
  let obs_on = Obs.Config.enabled () in
  (* Publishing the gauge at every measurement (not just at the end of
     the solve, as before) is what lets the background sampler draw a
     residual-vs-time curve while the iteration is still running. *)
  let record iterations res =
    Obs.Metrics.set solver_residual res;
    Obs.Metrics.push residual_trajectory ~x:(float_of_int iterations) ~y:res
  in
  let stride = max 1 options.residual_stride in
  let iterations = ref 0 in
  let res = ref 0.0 in
  let measuring = ref true in
  (* Each round measures, then sweeps a batch; the first measurement is
     a single up-front check, decisive when the caller's tolerance
     already admits the uniform vector.  The residual stays in a local,
     so with telemetry off a check allocates nothing. *)
  while !measuring do
    Sparse.mul_vec_into qt pi defect;
    let m = ref 0.0 in
    for i = 0 to n - 1 do
      let a = abs_float defect.(i) in
      if a > !m then m := a
    done;
    res := !m;
    if obs_on then record !iterations !res;
    if not (!res > options.tolerance) then measuring := false
    else begin
      if !iterations >= options.max_iterations then
        raise
          (Did_not_converge { method_used = method_; iterations = !iterations; residual = !res });
      let batch = min stride (options.max_iterations - !iterations) in
      let batch_start = if obs_on then Obs.Clock.now () else 0.0 in
      for _ = 1 to batch do
        sweep ~pi ~work;
        normalise_into pi
      done;
      if obs_on then
        Obs.Metrics.observe sweep_seconds ((Obs.Clock.now () -. batch_start) /. float_of_int batch);
      iterations := !iterations + batch
    end
  done;
  (pi, !iterations, !res)

(* Gauss-Seidel is SOR with unit relaxation; both update the candidate
   in place, already using each component's new value within the same
   sweep. *)
let solve_relaxed ?initial ~method_ options c omega =
  if omega <= 0.0 || omega >= 2.0 then
    raise
      (Not_solvable
         (Printf.sprintf "SOR relaxation parameter %g outside the convergent range (0, 2)" omega));
  check_no_absorbing c;
  let { Sparse.row_ptr; col_index; values; _ } = Ctmc.generator_transposed c in
  let exit = Ctmc.exit_rates c in
  let n = Ctmc.n_states c in
  let sweep ~pi ~work:_ =
    for i = 0 to n - 1 do
      let off = ref 0.0 in
      for k = row_ptr.(i) to row_ptr.(i + 1) - 1 do
        let j = col_index.(k) in
        if j <> i then off := !off +. (values.(k) *. pi.(j))
      done;
      let gs = !off /. exit.(i) in
      pi.(i) <- if omega = 1.0 then gs else ((1.0 -. omega) *. pi.(i)) +. (omega *. gs)
    done
  in
  iterate ?initial ~method_ ~options ~c ~sweep ()

let solve_sor ?initial options c omega = solve_relaxed ?initial ~method_:(Sor omega) options c omega
let solve_gauss_seidel ?initial options c = solve_relaxed ?initial ~method_:Gauss_seidel options c 1.0

let solve_power ?initial options c =
  let n = Ctmc.n_states c in
  let lambda = (Ctmc.max_exit_rate c *. 1.02) +. 1e-9 in
  let qt = Ctmc.generator_transposed c in
  (* pi <- pi (I + Q / lambda), computed through the transpose. *)
  let sweep ~pi ~work =
    Sparse.mul_vec_into qt pi work;
    for i = 0 to n - 1 do
      pi.(i) <- pi.(i) +. (work.(i) /. lambda)
    done
  in
  iterate ?initial ~method_:Power ~options ~c ~sweep ()

(* BiCGStab delegates to the Krylov engine; [Krylov] owns its own
   telemetry (same registry handles).  A scalar breakdown is not a
   verdict on the chain — the candidate is simply handed to the power
   method, the always-convergent sweep, and the stats record the
   method that actually produced the answer (the same convention as
   the auto policy's Gauss-Seidel -> Direct fallback). *)
let solve_bicgstab ?initial options c =
  check_no_absorbing c;
  let x0 = prepare_initial (Ctmc.n_states c) initial in
  let r =
    Krylov.bicgstab ~initial:x0 ~tolerance:options.tolerance
      ~max_iterations:options.max_iterations c
  in
  match r.Krylov.outcome with
  | Krylov.Converged ->
      ( r.Krylov.pi,
        { method_used = Bicgstab; iterations = r.Krylov.iterations; residual = r.Krylov.residual } )
  | Krylov.No_convergence ->
      raise
        (Did_not_converge
           { method_used = Bicgstab; iterations = r.Krylov.iterations; residual = r.Krylov.residual })
  | Krylov.Breakdown reason ->
      Obs.Log.info
        "steady.solve: bicgstab breakdown (%s) after %d sweeps; falling back to power iteration"
        reason r.Krylov.iterations;
      let pi, iterations, residual = solve_power ~initial:r.Krylov.pi options c in
      (pi, { method_used = Power; iterations; residual })

let record_stats stats =
  Domain.DLS.set last (Some stats);
  stats

let solve_stats ?method_ ?(options = default_options) ?initial c =
  if Ctmc.n_states c = 0 then
    ([||], record_stats { method_used = Direct; iterations = 0; residual = 0.0 })
  else
    Obs.Span.with_ "steady.solve" (fun span ->
        Obs.Span.add_int span "states" (Ctmc.n_states c);
        let direct () =
          let pi = solve_direct options c in
          (pi, { method_used = Direct; iterations = 0; residual = residual c pi })
        in
        let iterative method_ run =
          let pi, iterations, residual = run () in
          (pi, { method_used = method_; iterations; residual })
        in
        let pi, stats =
          match method_ with
          | Some Direct -> direct ()
          | Some Gauss_seidel ->
              iterative Gauss_seidel (fun () -> solve_gauss_seidel ?initial options c)
          | Some (Sor omega) ->
              iterative (Sor omega) (fun () -> solve_sor ?initial options c omega)
          | Some Power -> iterative Power (fun () -> solve_power ?initial options c)
          | Some Bicgstab -> solve_bicgstab ?initial options c
          | None -> (
              (* Default policy: Gauss-Seidel, falling back to the direct solver
                 for chains it cannot handle (absorbing states, slow mixing). *)
              let fallback () =
                if Ctmc.n_states c <= options.direct_limit then direct ()
                else raise (Not_solvable "iteration failed and the chain is too large for LU")
              in
              try iterative Gauss_seidel (fun () -> solve_gauss_seidel ?initial options c) with
              | Not_solvable _ -> fallback ()
              | Did_not_converge _ -> fallback ())
        in
        Obs.Span.add_str span "method" (method_name stats.method_used);
        Obs.Span.add_int span "iterations" stats.iterations;
        Obs.Span.add_float span "residual" stats.residual;
        Obs.Metrics.add solver_iterations stats.iterations;
        Obs.Metrics.set solver_residual stats.residual;
        Obs.Log.debug "steady.solve: method=%s iterations=%d residual=%.3e"
          (method_name stats.method_used) stats.iterations stats.residual;
        (pi, record_stats stats))

let solve ?method_ ?options ?initial c = fst (solve_stats ?method_ ?options ?initial c)
