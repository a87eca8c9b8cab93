let pepanet_source =
  {|
    probe_r = 4.0;
    log_r = 10.0;
    hop_r = 1.0;
    monitor_r = 20.0;
    Agent = (probe, probe_r).Ready;
    Ready = (hop, hop_r).Agent;
    Monitor = (probe, monitor_r).(log, log_r).Monitor;

    token Agent;

    place HostA = (Agent[Agent] <> Agent[Agent]) <probe> Monitor;
    place HostB = (Agent[_] <> Agent[_]) <probe> Monitor;
    place HostC = (Agent[_] <> Agent[_]) <probe> Monitor;

    trans hop_ab = (hop, hop_r) from HostA to HostB;
    trans hop_bc = (hop, hop_r) from HostB to HostC;
    trans hop_ca = (hop, hop_r) from HostC to HostA;
  |}

(* The same patrol, scaled: n tokens (all starting at HostA) over n
   cells per host, with every capacity — the monitors' probe and log
   rates and the hop transitions' rates — growing linearly so the
   density dynamics stay fixed.  At [tokens = 2] the rates coincide
   with [pepanet_source]. *)
let pepanet_family ~tokens =
  if tokens < 1 then invalid_arg "Roaming.pepanet_family: tokens must be positive";
  let n = tokens in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf
       "probe_r = 4.0;\n\
        log_r = %g;\n\
        hop_r = 1.0;\n\
        monitor_r = %g;\n\
        hop_cap = %g;\n\
        Agent = (probe, probe_r).Ready;\n\
        Ready = (hop, hop_r).Agent;\n\
        Monitor = (probe, monitor_r).(log, log_r).Monitor;\n\n\
        token Agent;\n\n"
       (5.0 *. float_of_int n)
       (10.0 *. float_of_int n)
       (0.5 *. float_of_int n));
  let cells fill =
    String.concat " <> "
      (List.init n (fun _ -> if fill then "Agent[Agent]" else "Agent[_]"))
  in
  Buffer.add_string buf
    (Printf.sprintf "place HostA = (%s) <probe> Monitor;\n" (cells true));
  Buffer.add_string buf
    (Printf.sprintf "place HostB = (%s) <probe> Monitor;\n" (cells false));
  Buffer.add_string buf
    (Printf.sprintf "place HostC = (%s) <probe> Monitor;\n" (cells false));
  Buffer.add_string buf
    "trans hop_ab = (hop, hop_cap) from HostA to HostB;\n\
     trans hop_bc = (hop, hop_cap) from HostB to HostC;\n\
     trans hop_ca = (hop, hop_cap) from HostC to HostA;\n";
  Buffer.contents buf

type lumped_family = {
  lumped_ctmc : Markov.Ctmc.t;
  lumped_initial : int;
  lumped_hop_throughput : float array -> float;
  lumped_probe_throughput : float array -> float;
  lumped_hop_jump : src:int -> dst:int -> bool;
}

(* The exact population chain of [pepanet_family ~tokens]: tokens of
   one family are interchangeable, so the marking chain lumps to
   counts (agents, readies) per host plus the three monitor bits.
   Rates follow the firing rule's aggregates — a transition flows at
   the min of its own rate and the candidate sum, a probe at the min
   of the agents' and the monitor's apparent rates — which is what
   the marking-level semantics sums to over an orbit of markings.
   Validated against the marking graph at small [tokens] by the test
   suite. *)
let lumped_family ~tokens =
  let n = tokens in
  let mon_cap = 10.0 *. float_of_int n in
  let log_r = 5.0 *. float_of_int n in
  let hop_cap = 0.5 *. float_of_int n in
  let index = Hashtbl.create 1024 in
  let n_states = ref 0 in
  let intern s =
    match Hashtbl.find_opt index s with
    | Some i -> i
    | None ->
        let i = !n_states in
        incr n_states;
        Hashtbl.add index s i;
        i
  in
  let transitions = ref [] in
  let hop_jumps = Hashtbl.create 1024 in
  let states_rev = ref [] in
  let frontier = Queue.create () in
  let s0 = (n, 0, 0, 0, 0, 0, 0, 0, 0) in
  ignore (intern s0);
  states_rev := s0 :: !states_rev;
  Queue.add s0 frontier;
  while not (Queue.is_empty frontier) do
    let ((aA, rA, aB, rB, aC, rC, mA, mB, mC) as s) = Queue.pop frontier in
    let src = intern s in
    let add ?(hop = false) dst rate =
      let before = !n_states in
      let d = intern dst in
      if !n_states > before then begin
        states_rev := dst :: !states_rev;
        Queue.add dst frontier
      end;
      transitions := (src, d, rate) :: !transitions;
      if hop then Hashtbl.replace hop_jumps (src, d) ()
    in
    let probe a = Float.min (4.0 *. float_of_int a) mon_cap in
    if mA = 0 && aA > 0 then add (aA - 1, rA + 1, aB, rB, aC, rC, 1, mB, mC) (probe aA);
    if mB = 0 && aB > 0 then add (aA, rA, aB - 1, rB + 1, aC, rC, mA, 1, mC) (probe aB);
    if mC = 0 && aC > 0 then add (aA, rA, aB, rB, aC - 1, rC + 1, mA, mB, 1) (probe aC);
    if mA = 1 then add (aA, rA, aB, rB, aC, rC, 0, mB, mC) log_r;
    if mB = 1 then add (aA, rA, aB, rB, aC, rC, mA, 0, mC) log_r;
    if mC = 1 then add (aA, rA, aB, rB, aC, rC, mA, mB, 0) log_r;
    let hop r = Float.min hop_cap (float_of_int r) in
    if rA > 0 then add ~hop:true (aA, rA - 1, aB + 1, rB, aC, rC, mA, mB, mC) (hop rA);
    if rB > 0 then add ~hop:true (aA, rA, aB, rB - 1, aC + 1, rC, mA, mB, mC) (hop rB);
    if rC > 0 then add ~hop:true (aA + 1, rA, aB, rB, aC, rC - 1, mA, mB, mC) (hop rC)
  done;
  let states = Array.of_list (List.rev !states_rev) in
  let ctmc = Markov.Ctmc.of_transitions ~n:!n_states !transitions in
  let hop_throughput pi =
    let total = ref 0.0 in
    Array.iteri
      (fun i (_, rA, _, rB, _, rC, _, _, _) ->
        let h r = if r > 0 then Float.min hop_cap (float_of_int r) else 0.0 in
        total := !total +. (pi.(i) *. (h rA +. h rB +. h rC)))
      states;
    !total
  in
  let probe_throughput pi =
    let total = ref 0.0 in
    Array.iteri
      (fun i (aA, _, aB, _, aC, _, mA, mB, mC) ->
        let p m a =
          if m = 0 && a > 0 then Float.min (4.0 *. float_of_int a) mon_cap else 0.0
        in
        total := !total +. (pi.(i) *. (p mA aA +. p mB aB +. p mC aC)))
      states;
    !total
  in
  {
    lumped_ctmc = ctmc;
    lumped_initial = 0;
    lumped_hop_throughput = hop_throughput;
    lumped_probe_throughput = probe_throughput;
    lumped_hop_jump = (fun ~src ~dst -> Hashtbl.mem hop_jumps (src, dst));
  }

let pepa_source ~replicas =
  Printf.sprintf
    {|
      User = (connect, 1.0).Busy;
      Busy = (transmit, 4.0).Closing;
      Closing = (disconnect, 2.0).User;
      Free = (connect, 3.0).Held;
      Held = (disconnect, 3.0).Free;
      system (User[%d]) <connect, disconnect> (Free[%d]);
    |}
    replicas
    (max 1 (replicas / 2))

let space () = Pepanet.Net_statespace.of_string pepanet_source

let patrol_report () =
  let space = space () in
  let pi = Pepanet.Net_statespace.steady_state space in
  let throughputs = Pepanet.Net_measures.throughputs space pi in
  let locations = Pepanet.Net_measures.token_location_probabilities space pi ~token:0 in
  let occupancy =
    List.map
      (fun place -> (place, Pepanet.Net_measures.expected_tokens_at space pi ~place))
      [ "HostA"; "HostB"; "HostC" ]
  in
  (throughputs, locations, occupancy)

let time_to_reach ~place ~token =
  let space = space () in
  let compiled = Pepanet.Net_statespace.compiled space in
  let place_index = Pepanet.Net_compile.place_index compiled place in
  let targets =
    List.filter
      (fun i ->
        Pepanet.Marking.token_place compiled (Pepanet.Net_statespace.marking space i) token
        = Some place_index)
      (List.init (Pepanet.Net_statespace.n_markings space) Fun.id)
  in
  Markov.Passage.mean (Markov.Lts.ctmc (Pepanet.Net_statespace.lts space))
    ~sources:[ (Pepanet.Net_statespace.initial_index space, 1.0) ]
    ~targets
