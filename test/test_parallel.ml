(* The multicore engine.  Two layers under test: the [Par] primitives
   (pool, parallel_for, deterministic sums, the frontier-parallel
   exploration engine) and the determinism contract of the pipeline
   built on them — at any job count the state space, the CTMC and the
   steady vector must reproduce the sequential results, state numbering
   and transition order included. *)

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

(* ------------------------------------------------------------------ *)
(* The exploration engine against a sequential reference BFS           *)
(* ------------------------------------------------------------------ *)

(* A deterministic pseudo-random digraph on 0..996. *)
let toy_expand i =
  [
    ((i * 7) + 1) mod 997, Printf.sprintf "p%d" i;
    ((i * 31) + 5) mod 997, "q";
    (i + 1) mod 997, "r";
  ]

(* First-occurrence numbering over the breadth-first transition stream:
   exactly the order the sequential builders use. *)
let reference_bfs ~expand root =
  let index = Hashtbl.create 64 in
  let order = ref [ root ] in
  let queue = Queue.create () in
  Hashtbl.add index root 0;
  Queue.add root queue;
  let count = ref 1 in
  let edges = ref [] in
  while not (Queue.is_empty queue) do
    let s = Queue.pop queue in
    let src = Hashtbl.find index s in
    List.iter
      (fun (d, payload) ->
        let dst =
          match Hashtbl.find_opt index d with
          | Some i -> i
          | None ->
              let i = !count in
              incr count;
              Hashtbl.add index d i;
              order := d :: !order;
              Queue.add d queue;
              i
        in
        edges := (src, dst, payload) :: !edges)
      (expand s)
  done;
  (Array.of_list (List.rev !order), List.rev !edges)

let test_explore_matches_reference () =
  let ref_states, ref_edges = reference_bfs ~expand:toy_expand 0 in
  List.iter
    (fun size ->
      let p = require_pool size in
      let edges = ref [] in
      let result =
        Par.Explore.explore ~pool:p ~hash:Hashtbl.hash ~equal:( = ) ~expand:toy_expand
          ~emit:(fun ~src ~dst payload -> edges := (src, dst, payload) :: !edges)
          0
      in
      Alcotest.(check bool)
        (Printf.sprintf "states in sequential order (pool %d)" size)
        true
        (result.Par.Explore.states = ref_states);
      Alcotest.(check bool)
        (Printf.sprintf "transition stream in sequential order (pool %d)" size)
        true
        (List.rev !edges = ref_edges);
      Alcotest.(check int) "shard occupancy accounts for every state"
        (Array.length ref_states)
        (Array.fold_left ( + ) 0 result.Par.Explore.shard_states))
    [ 2; 4 ]

let test_explore_limit () =
  let p = require_pool 3 in
  Alcotest.check_raises "state cap raises Limit" Par.Explore.Limit (fun () ->
      ignore
        (Par.Explore.explore ~pool:p ~hash:Hashtbl.hash ~equal:( = ) ~expand:toy_expand
           ~emit:(fun ~src:_ ~dst:_ _ -> ())
           ~max_states:50 0))

(* ------------------------------------------------------------------ *)
(* Pipeline determinism: jobs = 4 must reproduce jobs = 1 exactly      *)
(* ------------------------------------------------------------------ *)

let max_abs_diff a b =
  Alcotest.(check int) "steady vectors same length" (Array.length a) (Array.length b);
  let d = ref 0.0 in
  Array.iteri (fun i v -> d := Float.max !d (Float.abs (v -. b.(i)))) a;
  !d

let generator_of space = Markov.Ctmc.generator (Pepa.Statespace.ctmc space)
let net_generator_of space = Markov.Ctmc.generator (Pepanet.Net_statespace.ctmc space)

let check_pepa_deterministic name source =
  List.iter
    (fun symmetry ->
      let tag = Printf.sprintf "%s%s" name (if symmetry then " (symmetry)" else "") in
      let seq = Pepa.Statespace.of_string ~symmetry source in
      let par = Pepa.Statespace.of_string ~symmetry ~jobs source in
      Alcotest.(check int)
        (tag ^ ": states") (Pepa.Statespace.n_states seq) (Pepa.Statespace.n_states par);
      Alcotest.(check int)
        (tag ^ ": transitions")
        (Pepa.Statespace.n_transitions seq)
        (Pepa.Statespace.n_transitions par);
      let labels sp =
        Array.init (Pepa.Statespace.n_states sp) (Pepa.Statespace.state_label sp)
      in
      Alcotest.(check bool) (tag ^ ": state numbering identical") true
        (labels seq = labels par);
      Alcotest.(check bool) (tag ^ ": transition list identical") true
        (Pepa.Statespace.transitions seq = Pepa.Statespace.transitions par);
      Alcotest.(check bool) (tag ^ ": generator bitwise identical") true
        (generator_of seq = generator_of par);
      let pi_seq = Pepa.Statespace.steady_state seq in
      let pi_par = Pepa.Statespace.steady_state ~jobs par in
      Alcotest.(check bool) (tag ^ ": steady vector within 1e-10") true
        (max_abs_diff pi_seq pi_par <= 1e-10);
      (* --aggregate both: symmetry orbits and lump respect keys are
         derived from the (identical) numbering, so the lumped solve
         must agree too. *)
      if symmetry then begin
        let pi_seq = Pepa.Statespace.steady_state ~lump:true seq in
        let pi_par = Pepa.Statespace.steady_state ~lump:true ~jobs par in
        Alcotest.(check bool) (tag ^ ": lumped steady vector within 1e-10") true
          (max_abs_diff pi_seq pi_par <= 1e-10)
      end)
    [ false; true ]

let check_net_deterministic name source =
  List.iter
    (fun symmetry ->
      let tag = Printf.sprintf "%s%s" name (if symmetry then " (symmetry)" else "") in
      let seq = Pepanet.Net_statespace.of_string ~symmetry source in
      let par = Pepanet.Net_statespace.of_string ~symmetry ~jobs source in
      Alcotest.(check int)
        (tag ^ ": markings")
        (Pepanet.Net_statespace.n_markings seq)
        (Pepanet.Net_statespace.n_markings par);
      let labels sp =
        Array.init
          (Pepanet.Net_statespace.n_markings sp)
          (Pepanet.Net_statespace.marking_label sp)
      in
      Alcotest.(check bool) (tag ^ ": marking numbering identical") true
        (labels seq = labels par);
      Alcotest.(check bool) (tag ^ ": transition list identical") true
        (Pepanet.Net_statespace.transitions seq = Pepanet.Net_statespace.transitions par);
      Alcotest.(check bool) (tag ^ ": generator bitwise identical") true
        (net_generator_of seq = net_generator_of par);
      let pi_seq = Pepanet.Net_statespace.steady_state seq in
      let pi_par = Pepanet.Net_statespace.steady_state ~jobs par in
      Alcotest.(check bool) (tag ^ ": steady vector within 1e-10") true
        (max_abs_diff pi_seq pi_par <= 1e-10);
      if symmetry then begin
        let pi_seq = Pepanet.Net_statespace.steady_state ~lump:true seq in
        let pi_par = Pepanet.Net_statespace.steady_state ~lump:true ~jobs par in
        Alcotest.(check bool) (tag ^ ": lumped steady vector within 1e-10") true
          (max_abs_diff pi_seq pi_par <= 1e-10)
      end)
    [ false; true ]

let e6 n =
  Printf.sprintf
    "Proc = (task, 1.0).(swap, 2.0).Proc;\n\
     Srv = (task, infty).(log, 5.0).Srv;\n\
     system (Proc[%d]) <task> Srv;"
    n

let test_scenarios_deterministic () =
  check_pepa_deterministic "roaming" (Scenarios.Roaming.pepa_source ~replicas:4);
  check_pepa_deterministic "file-protocol" Scenarios.File_protocol.pepa_source;
  check_pepa_deterministic "e6-9" (e6 9);
  check_net_deterministic "roaming-net" Scenarios.Roaming.pepanet_source;
  check_net_deterministic "instant-message" Scenarios.Instant_message.pepanet_source

let test_extracted_nets_deterministic () =
  (* Nets that only exist as compiled structures: the PDA handover and
     the code-mobility agent, through [build] directly. *)
  let check name compiled =
    let seq = Pepanet.Net_statespace.build compiled in
    let par = Pepanet.Net_statespace.build ~jobs compiled in
    let labels sp =
      Array.init
        (Pepanet.Net_statespace.n_markings sp)
        (Pepanet.Net_statespace.marking_label sp)
    in
    Alcotest.(check bool) (name ^ ": marking numbering identical") true
      (labels seq = labels par);
    Alcotest.(check bool) (name ^ ": transition list identical") true
      (Pepanet.Net_statespace.transitions seq = Pepanet.Net_statespace.transitions par)
  in
  let pda = Scenarios.Pda.extraction () in
  check "pda" (Pepanet.Net_compile.compile pda.Extract.Ad_to_pepanet.net);
  check "code-mobility"
    (Pepanet.Net_compile.compile
       (Scenarios.Code_mobility.mobile_agent_net Scenarios.Code_mobility.default_parameters))

(* A model big enough to cross the solvers' pool threshold (2^13
   states, beyond 4096): pooled power sweeps agree with sequential ones
   to 1e-10, and Gauss-Seidel never touches the pool. *)
let test_large_model_parallel_paths () =
  let source = e6 12 in
  let chain_seq = Pepa.Statespace.ctmc (Pepa.Statespace.of_string source) in
  let chain_par = Pepa.Statespace.ctmc (Pepa.Statespace.of_string ~jobs source) in
  let pi_seq = Markov.Steady.solve ~method_:Markov.Steady.Power chain_seq in
  let pi_par = Markov.Steady.solve ~method_:Markov.Steady.Power ~jobs chain_par in
  Alcotest.(check bool) "power parallel within 1e-10" true
    (max_abs_diff pi_seq pi_par <= 1e-10);
  (* Gauss-Seidel stays sequential at any job count: bitwise equal. *)
  let pi_seq = Markov.Steady.solve ~method_:Markov.Steady.Gauss_seidel chain_seq in
  let pi_par = Markov.Steady.solve ~method_:Markov.Steady.Gauss_seidel ~jobs chain_par in
  Alcotest.(check bool) "gauss-seidel independent of jobs" true (pi_seq = pi_par)

(* ------------------------------------------------------------------ *)
(* Random small PEPA terms                                             *)
(* ------------------------------------------------------------------ *)

let gen_model =
  let open QCheck2.Gen in
  let action = oneofl [ "a"; "b"; "c" ] in
  let rate = 1 -- 40 >|= fun r -> float_of_int r /. 10.0 in
  let component name =
    list_size (1 -- 3) (pair action rate) >|= fun steps ->
    Printf.sprintf "%s = %s%s;" name
      (String.concat ""
         (List.map (fun (a, r) -> Printf.sprintf "(%s, %.1f)." a r) steps))
      name
  in
  let coop = oneofl [ "<>"; "<a>"; "<b>"; "<a, b>"; "<a, b, c>" ] in
  let replicas = 1 -- 3 in
  component "P" >>= fun p ->
  component "Q" >>= fun q ->
  coop >>= fun set ->
  replicas >>= fun np ->
  replicas >|= fun nq ->
  Printf.sprintf "%s\n%s\nsystem (P[%d]) %s (Q[%d]);" p q np set nq

let prop_random_terms_deterministic =
  QCheck2.Test.make ~name:"random PEPA terms explore identically at jobs = 3" ~count:60
    ~print:(fun s -> s)
    gen_model
    (fun source ->
      let seq = Pepa.Statespace.of_string source in
      let par = Pepa.Statespace.of_string ~jobs:3 source in
      let labels sp =
        Array.init (Pepa.Statespace.n_states sp) (Pepa.Statespace.state_label sp)
      in
      labels seq = labels par
      && Pepa.Statespace.transitions seq = Pepa.Statespace.transitions par
      && generator_of seq = generator_of par)

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
    Alcotest.test_case "explore matches the sequential BFS" `Quick test_explore_matches_reference;
    Alcotest.test_case "explore honours the state cap" `Quick test_explore_limit;
    Alcotest.test_case "scenario pipelines are deterministic" `Slow test_scenarios_deterministic;
    Alcotest.test_case "extracted nets are deterministic" `Quick test_extracted_nets_deterministic;
    Alcotest.test_case "large-model parallel paths" `Slow test_large_model_parallel_paths;
    QCheck_alcotest.to_alcotest prop_random_terms_deterministic;
    Alcotest.test_case "--jobs validation" `Quick test_jobs_cli_validation;
  ]
