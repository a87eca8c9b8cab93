(* The multicore engine.  Two layers under test: the [Par] primitives
   (pool, parallel_for, deterministic sums) and the one pooled stage
   built on them — power sweeps must reproduce the sequential steady
   vector at any job count. *)

let jobs = 4

(* Sets the process-wide default; restores it so other suites stay on
   the sequential path. *)
let with_jobs n f =
  Par.set_jobs n;
  Fun.protect ~finally:(fun () -> Par.set_jobs 1) f

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Par primitives                                                      *)
(* ------------------------------------------------------------------ *)

let test_resolve () =
  Alcotest.(check int) "1 is sequential" 1 (Par.resolve 1);
  Alcotest.(check int) "explicit count" 5 (Par.resolve 5);
  Alcotest.(check bool) "0 auto-detects to a positive count" true (Par.resolve 0 >= 1);
  Alcotest.check_raises "negative job counts rejected"
    (Invalid_argument "Par.resolve: jobs must be >= 0") (fun () ->
      ignore (Par.resolve (-3)));
  Alcotest.(check bool) "a pool of one is no pool" true (Par.pool ~jobs:1 () = None);
  with_jobs 3 (fun () -> Alcotest.(check int) "set_jobs feeds the default" 3 (Par.jobs ()))

let require_pool n =
  match Par.pool ~jobs:n () with
  | Some p -> p
  | None -> Alcotest.failf "expected a pool of %d" n

let test_parallel_for () =
  let p = require_pool 3 in
  let n = 10_000 in
  let hits = Array.make n 0 in
  Par.parallel_for p ~chunk:7 ~lo:0 ~hi:n (fun lo hi ->
      for i = lo to hi - 1 do
        hits.(i) <- hits.(i) + 1
      done);
  Alcotest.(check bool) "every index covered exactly once" true
    (Array.for_all (( = ) 1) hits)

let test_sum_floats_deterministic () =
  let p = require_pool 4 in
  let partial lo hi =
    let s = ref 0.0 in
    for i = lo to hi - 1 do
      s := !s +. (1.0 /. float_of_int (i + 1))
    done;
    !s
  in
  let a = Par.sum_floats p ~lo:0 ~hi:100_000 partial in
  let b = Par.sum_floats p ~lo:0 ~hi:100_000 partial in
  Alcotest.(check bool) "repeated parallel sums bitwise equal" true (a = b);
  Alcotest.(check (float 1e-9)) "close to the sequential sum" (partial 0 100_000) a

let test_pool_exception () =
  let p = require_pool 3 in
  Alcotest.check_raises "a worker exception reaches the caller" Exit (fun () ->
      Par.parallel_for p ~chunk:1 ~lo:0 ~hi:100 (fun lo _ -> if lo = 57 then raise Exit));
  (* The pool survives a failed batch. *)
  let hits = Atomic.make 0 in
  Par.parallel_for p ~lo:0 ~hi:100 (fun lo hi -> ignore (Atomic.fetch_and_add hits (hi - lo)));
  Alcotest.(check int) "pool usable after the failure" 100 (Atomic.get hits)

let max_abs_diff a b =
  Alcotest.(check int) "steady vectors same length" (Array.length a) (Array.length b);
  let d = ref 0.0 in
  Array.iteri (fun i v -> d := Float.max !d (Float.abs (v -. b.(i)))) a;
  !d

let e6 n =
  Printf.sprintf
    "Proc = (task, 1.0).(swap, 2.0).Proc;\n\
     Srv = (task, infty).(log, 5.0).Srv;\n\
     system (Proc[%d]) <task> Srv;"
    n

(* A model big enough to cross the solvers' pool threshold (2^13
   states, beyond 4096): pooled power sweeps agree with sequential ones
   to 1e-10, and Gauss-Seidel never touches the pool. *)
let test_large_model_parallel_paths () =
  let chain = Pepa.Statespace.ctmc (Pepa.Statespace.of_string (e6 12)) in
  let pi_seq = Markov.Steady.solve ~method_:Markov.Steady.Power chain in
  let pi_par = Markov.Steady.solve ~method_:Markov.Steady.Power ~jobs chain in
  Alcotest.(check bool) "power parallel within 1e-10" true
    (max_abs_diff pi_seq pi_par <= 1e-10);
  (* Gauss-Seidel stays sequential at any job count: bitwise equal. *)
  let pi_seq = Markov.Steady.solve ~method_:Markov.Steady.Gauss_seidel chain in
  let pi_par = Markov.Steady.solve ~method_:Markov.Steady.Gauss_seidel ~jobs chain in
  Alcotest.(check bool) "gauss-seidel independent of jobs" true (pi_seq = pi_par)

(* ------------------------------------------------------------------ *)
(* CLI validation                                                      *)
(* ------------------------------------------------------------------ *)

let test_jobs_cli_validation () =
  let cmd =
    Cmdliner.Cmd.v (Cmdliner.Cmd.info "probe")
      Cmdliner.Term.(const (fun _jobs -> ()) $ Cli_support.telemetry_term)
  in
  let eval argv = Cli_support.eval_cli ~argv cmd in
  Fun.protect
    ~finally:(fun () -> Par.set_jobs 1)
    (fun () ->
      Alcotest.(check int) "non-numeric --jobs exits 2" 2 (eval [| "probe"; "--jobs"; "banana" |]);
      Alcotest.(check int) "negative --jobs exits 2" 2 (eval [| "probe"; "--jobs=-3" |]);
      Alcotest.(check int) "--jobs 2 accepted" 0 (eval [| "probe"; "--jobs"; "2" |]);
      Alcotest.(check int) "resolved count installed" 2 (Par.jobs ());
      Alcotest.(check int) "--jobs 0 auto-detects" 0 (eval [| "probe"; "-j"; "0" |]);
      Alcotest.(check bool) "auto-detected count positive" true (Par.jobs () >= 1));
  match Cmdliner.Arg.conv_parser Cli_support.jobs_conv "banana" with
  | Error (`Msg m) ->
      Alcotest.(check bool) "parse error enumerates the valid forms" true
        (contains_sub m "valid:")
  | Ok _ -> Alcotest.fail "banana must not parse as a job count"

let suite =
  [
    Alcotest.test_case "resolve and defaults" `Quick test_resolve;
    Alcotest.test_case "parallel_for covers the range" `Quick test_parallel_for;
    Alcotest.test_case "parallel sums are deterministic" `Quick test_sum_floats_deterministic;
    Alcotest.test_case "worker exceptions propagate" `Quick test_pool_exception;
    Alcotest.test_case "large-model parallel paths" `Slow test_large_model_parallel_paths;
    Alcotest.test_case "--jobs validation" `Quick test_jobs_cli_validation;
  ]
