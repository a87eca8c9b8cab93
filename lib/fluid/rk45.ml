(* Dormand-Prince 5(4) with step-size control, FSAL, and steady-state
   detection on the derivative norm. *)

type tolerances = { rtol : float; atol : float }

let default_tolerances = { rtol = 1e-8; atol = 1e-12 }

type stats = {
  steps : int;
  rejected : int;
  evaluations : int;
  t_end : float;
  dx_norm : float;
  reached_steady : bool;
}

exception Did_not_reach_steady of { steps : int; t : float; dx_norm : float }

exception
  Step_budget_exhausted of { steps : int; t : float; error_estimate : float }

let steps_gauge = Obs.Metrics.gauge "fluid.steps"
let rejected_gauge = Obs.Metrics.gauge "fluid.rejected_steps"

(* Butcher tableau (Dormand & Prince 1980). *)
let c2 = 0.2
let c3 = 0.3
let c4 = 0.8
let c5 = 8.0 /. 9.0

let a21 = 0.2
let a31 = 3.0 /. 40.0
let a32 = 9.0 /. 40.0
let a41 = 44.0 /. 45.0
let a42 = -56.0 /. 15.0
let a43 = 32.0 /. 9.0
let a51 = 19372.0 /. 6561.0
let a52 = -25360.0 /. 2187.0
let a53 = 64448.0 /. 6561.0
let a54 = -212.0 /. 729.0
let a61 = 9017.0 /. 3168.0
let a62 = -355.0 /. 33.0
let a63 = 46732.0 /. 5247.0
let a64 = 49.0 /. 176.0
let a65 = -5103.0 /. 18656.0

(* 5th-order weights; the 6th stage lands on t + h, so these double as
   the a7* row (FSAL). *)
let b1 = 35.0 /. 384.0
let b3 = 500.0 /. 1113.0
let b4 = 125.0 /. 192.0
let b5 = -2187.0 /. 6784.0
let b6 = 11.0 /. 84.0

(* Embedded 4th-order weights. *)
let e1 = 5179.0 /. 57600.0
let e3 = 7571.0 /. 16695.0
let e4 = 393.0 /. 640.0
let e5 = -92097.0 /. 339200.0
let e6 = 187.0 /. 2100.0
let e7 = 1.0 /. 40.0

(* Local-error control looser than this lets the trajectory oscillate
   around the fixed point at the edge of the stability region, with a
   derivative norm that never settles; looser requests run at it. *)
let loosest_rtol = 1e-4

(* The default steady threshold is a relative rate: [1e3 * rtol] alone
   would accept a state still moving by a tenth of its size per time
   unit, and the initial state itself once rtol reached 1e-3. *)
let loosest_steady_tol = 1e-3

let inf_norm v =
  let m = ref 0.0 in
  Array.iter (fun x -> if Float.abs x > !m then m := Float.abs x) v;
  !m

let integrate ?(tolerances = default_tolerances) ?steady_tol ?(t_max = 1e6)
    ?(max_steps = 2_000_000) ~f ~x0 () =
  if not (tolerances.rtol > 0.0 && tolerances.atol > 0.0) then
    invalid_arg "Rk45.integrate: tolerances must be positive";
  let rtol = Float.min tolerances.rtol loosest_rtol in
  (* Error control can only track the trajectory down to a deviation of
     about [rtol * ||x||], so the derivative norm plateaus near that
     floor; a steady threshold three decades above it fires reliably
     while staying far below any meaningful flow. *)
  let steady_tol =
    match steady_tol with
    | Some s -> s
    | None -> Float.min (1e3 *. rtol) loosest_steady_tol
  in
  if not (steady_tol > 0.0) then invalid_arg "Rk45.integrate: steady_tol must be positive";
  (* An absolute tolerance above the steady threshold lets the
     trajectory wander around the fixed point by more than the steady
     test accepts, exactly as a loose rtol does. *)
  let tolerances = { rtol; atol = Float.min tolerances.atol steady_tol } in
  Obs.Span.with_
    ~attrs:
      [ ("rtol", Obs.Span.Float tolerances.rtol); ("atol", Obs.Span.Float tolerances.atol) ]
    "fluid.integrate"
    (fun span ->
      let n = Array.length x0 in
      let x = Array.copy x0 in
      let xt = Array.make n 0.0 in
      let xnew = Array.make n 0.0 in
      let k1 = Array.make n 0.0 in
      let k2 = Array.make n 0.0 in
      let k3 = Array.make n 0.0 in
      let k4 = Array.make n 0.0 in
      let k5 = Array.make n 0.0 in
      let k6 = Array.make n 0.0 in
      let k7 = Array.make n 0.0 in
      let evaluations = ref 0 in
      let eval t x dx =
        incr evaluations;
        f ~t ~x ~dx
      in
      let t = ref 0.0 in
      let steps = ref 0 in
      let rejected = ref 0 in
      let last_err = ref 0.0 in
      eval !t x k1;
      let steady dx = inf_norm dx <= steady_tol *. Float.max 1.0 (inf_norm x) in
      (* Initial step: a conservative fraction of the solution's own
         time scale. *)
      let h =
        ref
          (let d0 = Float.max (inf_norm x) 1.0 and d1 = inf_norm k1 in
           if d1 > 1e-12 then Float.min 0.1 (0.01 *. d0 /. d1) else 0.1)
      in
      let finished = ref (steady k1) in
      (* Stability cap.  Near the fixed point the local error vanishes,
         so pure error control grows h geometrically until the step
         leaves the method's stability region; the controller then
         equilibrates the solution at the tolerance floor instead of
         converging, and the steady test never fires.  Capping growth
         at the last rejected step size (relaxed gently on acceptance)
         keeps h hovering just below the stability boundary, where the
         deviation keeps contracting to machine precision. *)
      let h_cap = ref infinity in
      while (not !finished) && !t < t_max && !steps < max_steps do
        let h0 = !h in
        (* Six fresh stages; k1 is carried over (FSAL). *)
        for i = 0 to n - 1 do
          xt.(i) <- x.(i) +. (h0 *. a21 *. k1.(i))
        done;
        eval (!t +. (c2 *. h0)) xt k2;
        for i = 0 to n - 1 do
          xt.(i) <- x.(i) +. (h0 *. ((a31 *. k1.(i)) +. (a32 *. k2.(i))))
        done;
        eval (!t +. (c3 *. h0)) xt k3;
        for i = 0 to n - 1 do
          xt.(i) <-
            x.(i) +. (h0 *. ((a41 *. k1.(i)) +. (a42 *. k2.(i)) +. (a43 *. k3.(i))))
        done;
        eval (!t +. (c4 *. h0)) xt k4;
        for i = 0 to n - 1 do
          xt.(i) <-
            x.(i)
            +. (h0
               *. ((a51 *. k1.(i)) +. (a52 *. k2.(i)) +. (a53 *. k3.(i)) +. (a54 *. k4.(i))))
        done;
        eval (!t +. (c5 *. h0)) xt k5;
        for i = 0 to n - 1 do
          xt.(i) <-
            x.(i)
            +. (h0
               *. ((a61 *. k1.(i)) +. (a62 *. k2.(i)) +. (a63 *. k3.(i)) +. (a64 *. k4.(i))
                  +. (a65 *. k5.(i))))
        done;
        eval (!t +. h0) xt k6;
        for i = 0 to n - 1 do
          xnew.(i) <-
            x.(i)
            +. (h0
               *. ((b1 *. k1.(i)) +. (b3 *. k3.(i)) +. (b4 *. k4.(i)) +. (b5 *. k5.(i))
                  +. (b6 *. k6.(i))))
        done;
        eval (!t +. h0) xnew k7;
        (* Scaled RMS of the embedded 4th/5th-order difference. *)
        let err = ref 0.0 in
        for i = 0 to n - 1 do
          let y4 =
            x.(i)
            +. (h0
               *. ((e1 *. k1.(i)) +. (e3 *. k3.(i)) +. (e4 *. k4.(i)) +. (e5 *. k5.(i))
                  +. (e6 *. k6.(i)) +. (e7 *. k7.(i))))
          in
          let scale =
            tolerances.atol
            +. (tolerances.rtol *. Float.max (Float.abs x.(i)) (Float.abs xnew.(i)))
          in
          let d = (xnew.(i) -. y4) /. scale in
          err := !err +. (d *. d)
        done;
        let err = sqrt (!err /. float_of_int (max n 1)) in
        last_err := err;
        if err <= 1.0 then begin
          (* Accept: clamp truncation-noise negatives, reuse k7 as the
             next step's k1, and test for steady state for free. *)
          t := !t +. h0;
          incr steps;
          for i = 0 to n - 1 do
            x.(i) <- (if xnew.(i) > 0.0 then xnew.(i) else 0.0)
          done;
          Array.blit k7 0 k1 0 n;
          if steady k1 then finished := true;
          h_cap := !h_cap *. 1.3
        end
        else begin
          incr rejected;
          h_cap := h0
        end;
        let factor =
          if err <= 0.0 then 5.0
          else Float.min 5.0 (Float.max 0.2 (0.9 *. Float.exp (-0.2 *. Float.log err)))
        in
        h := Float.min (h0 *. factor) !h_cap;
        if !h < 1e-14 *. Float.max 1.0 !t then begin
          (* The controller collapsed the step: treat as divergence. *)
          raise (Did_not_reach_steady { steps = !steps; t = !t; dx_norm = inf_norm k1 })
        end
      done;
      let dx_norm = inf_norm k1 in
      Obs.Span.add_int span "steps" !steps;
      Obs.Span.add_int span "rejected" !rejected;
      Obs.Span.add_float span "t_end" !t;
      Obs.Span.add_bool span "reached_steady" !finished;
      Obs.Metrics.set steps_gauge (float_of_int !steps);
      Obs.Metrics.set rejected_gauge (float_of_int !rejected);
      if not !finished then
        if !steps >= max_steps then
          (* The step budget ran out, not the time horizon: a stiff
             model spinning through tiny accepted steps.  Report the
             reached time and the last local error estimate so the
             caller can decide between relaxing tolerances and giving
             up. *)
          raise
            (Step_budget_exhausted { steps = !steps; t = !t; error_estimate = !last_err })
        else raise (Did_not_reach_steady { steps = !steps; t = !t; dx_norm });
      ( x,
        {
          steps = !steps;
          rejected = !rejected;
          evaluations = !evaluations;
          t_end = !t;
          dx_norm;
          reached_steady = !finished;
        } ))
