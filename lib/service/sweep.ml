type point = {
  assignment : (string * float) list;
  n_states : int;
  iterations : int;
  warm : bool;
  solve_s : float;
  throughputs : (string * float) list;
}

type result = { points : point list; total_s : float }

let fail fmt =
  Printf.ksprintf (fun msg -> raise (Choreographer.Workbench.Analysis_error msg)) fmt

(* ------------------------------------------------------------------ *)
(* Model rewriting                                                     *)
(* ------------------------------------------------------------------ *)

open Pepa.Syntax

let rec rewrite_replicas ~target ~count = function
  | Array_rep (Var v, _) when v = target -> Array_rep (Var v, count)
  | Array_rep (p, n) -> Array_rep (rewrite_replicas ~target ~count p, n)
  | Prefix (a, r, p) -> Prefix (a, r, rewrite_replicas ~target ~count p)
  | Choice (p, q) ->
      Choice (rewrite_replicas ~target ~count p, rewrite_replicas ~target ~count q)
  | Coop (p, acts, q) ->
      Coop (rewrite_replicas ~target ~count p, acts, rewrite_replicas ~target ~count q)
  | Hide (p, acts) -> Hide (rewrite_replicas ~target ~count p, acts)
  | (Stop | Var _) as e -> e

let rec mentions_replicated ~target = function
  | Array_rep (Var v, _) when v = target -> true
  | Array_rep (p, _) | Prefix (_, _, p) | Hide (p, _) -> mentions_replicated ~target p
  | Choice (p, q) | Coop (p, _, q) ->
      mentions_replicated ~target p || mentions_replicated ~target q
  | Stop | Var _ -> false

let apply_axis ~name model (target, value) =
  match target with
  | `Rate rate ->
      let hit = ref false in
      let definitions =
        List.map
          (function
            | Rate_def (n, _) when n = rate ->
                hit := true;
                Rate_def (n, Rnum value)
            | def -> def)
          model.definitions
      in
      if not !hit then fail "%s: sweep axis %s does not match any rate definition" name rate;
      { model with definitions }
  | `Replicas component ->
      let count = int_of_float (Float.round value) in
      if count < 1 then fail "%s: sweep replica count %g for %s is not positive" name value component;
      let found =
        mentions_replicated ~target:component model.system
        || List.exists
             (function
               | Proc_def (_, body) -> mentions_replicated ~target:component body
               | Rate_def _ -> false)
             model.definitions
      in
      if not found then
        fail "%s: sweep axis %s does not match any replicated component" name component;
      {
        definitions =
          List.map
            (function
              | Proc_def (n, body) ->
                  Proc_def (n, rewrite_replicas ~target:component ~count body)
              | def -> def)
            model.definitions;
        system = rewrite_replicas ~target:component ~count model.system;
      }

(* Row-major grid: the last axis varies fastest. *)
let grid axes =
  List.fold_right
    (fun (axis : Protocol.axis) acc ->
      List.concat_map
        (fun v -> List.map (fun rest -> (axis.Protocol.target, v) :: rest) acc)
        axis.Protocol.values)
    axes [ [] ]

let target_name = function `Rate n -> n | `Replicas n -> n

(* ------------------------------------------------------------------ *)
(* Per-point solves                                                    *)
(* ------------------------------------------------------------------ *)

let run ~name ~model ~(options : Protocol.options) ~axes ~backend ~warm_start =
  let t_start = Unix.gettimeofday () in
  let symmetry = Markov.Lump.symmetry_enabled options.Protocol.aggregate in
  (* The previous point's solution, reused as a starting vector when
     the dimension still matches (rate moves keep it; replica moves
     change the chain and fall back to cold). *)
  let previous = ref None in
  let points =
    List.map
      (fun assignment ->
        let t0 = Unix.gettimeofday () in
        let point_model = List.fold_left (apply_axis ~name) model assignment in
        let compiled, _warnings = Choreographer.Workbench.compile_pepa ~name point_model in
        let n_states, iterations, warm, throughputs =
          match backend with
          | Protocol.Exact ->
              let space =
                Choreographer.Workbench.pepa_space ~name ?max_states:options.Protocol.max_states
                  ~symmetry compiled
              in
              let n = Pepa.Statespace.n_states space in
              let initial =
                match !previous with
                | Some prev when warm_start && Array.length prev = n -> Some prev
                | _ -> None
              in
              let pi, stats =
                Markov.Steady.solve_stats ?method_:options.Protocol.method_ ?initial
                  (Pepa.Statespace.ctmc space)
              in
              previous := Some pi;
              (n, stats.Markov.Steady.iterations, initial <> None,
               Pepa.Statespace.throughputs space pi)
          | Protocol.Lump ->
              let space =
                Choreographer.Workbench.pepa_space ~name ?max_states:options.Protocol.max_states
                  ~symmetry compiled
              in
              let pi =
                Choreographer.Workbench.solve_pepa ~name ?method_:options.Protocol.method_
                  ~lump:true space
              in
              previous := None;
              let iterations =
                match Markov.Steady.last_stats () with
                | Some s -> s.Markov.Steady.iterations
                | None -> 0
              in
              (Pepa.Statespace.n_states space, iterations, false,
               Pepa.Statespace.throughputs space pi)
          | Protocol.Fluid_ode ->
              let form = Choreographer.Workbench.pepa_fluid_form ~name compiled in
              let dim = Fluid.Vector_form.dim form in
              let x0 =
                match !previous with
                | Some prev when warm_start && Array.length prev = dim ->
                    Some (Array.copy prev)
                | _ -> None
              in
              let populations, stats =
                Choreographer.Workbench.integrate_pepa_form
                  ?tolerances:options.Protocol.fluid ?x0 form
              in
              previous := Some populations;
              (dim, stats.Fluid.Rk45.steps, x0 <> None,
               Fluid.Vector_form.throughputs form populations)
        in
        {
          assignment =
            List.map (fun (target, v) -> (target_name target, v)) assignment;
          n_states;
          iterations;
          warm;
          solve_s = Unix.gettimeofday () -. t0;
          throughputs;
        })
      (grid axes)
  in
  { points; total_s = Unix.gettimeofday () -. t_start }

let to_json ~backend ~warm_start result =
  let open Obs.Json in
  let point_json p =
    Obj
      [
        ("assignment", Obj (List.map (fun (n, v) -> (n, Num v)) p.assignment));
        ("n_states", Num (float_of_int p.n_states));
        ("iterations", Num (float_of_int p.iterations));
        ("warm", Bool p.warm);
        ("solve_s", Num p.solve_s);
        ("throughputs", Obj (List.map (fun (n, v) -> (n, Num v)) p.throughputs));
      ]
  in
  Obj
    [
      ( "backend",
        Str
          (match backend with
          | Protocol.Exact -> "exact"
          | Protocol.Lump -> "lump"
          | Protocol.Fluid_ode -> "fluid") );
      ("warm_start", Bool warm_start);
      ("points", Arr (List.map point_json result.points));
      ("total_s", Num result.total_s);
    ]
