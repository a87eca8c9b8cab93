(* The state store (a bit-packed arena of leaf vectors), the symmetry
   used to build it, and the one labelled transition stream derived
   from it ([Markov.Lts]), labelled by action type. *)
type t = {
  compiled : Compile.t;
  symmetry : Symmetry.t;  (* trivial unless built with ~symmetry:true *)
  codec : Statekey.t;
  packed : Bytes.t;  (* bit-packed state arena: state [i] at [i * Statekey.size codec] *)
  lts : Action.t Markov.Lts.t;
}

exception Too_many_states of int
exception Passive_transition of { state : string; action : string }

(* Shared exploration metrics (the PEPA-net builder adds to the same
   counters, so a pipeline run reports one total per name). *)
let states_explored = Obs.Metrics.counter "states_explored"
let transitions_emitted = Obs.Metrics.counter "transitions_emitted"
let intern_collisions = Obs.Metrics.counter "intern_collisions"
let canonical_hits = Obs.Metrics.counter "statespace.canonical_hits"

(* Discovered-but-unexpanded states, refreshed while the build runs so
   the background sampler can chart frontier occupancy over time (the
   PEPA-net builder shares the gauge). *)
let frontier_states = Obs.Metrics.gauge "statespace.frontier_states"

(* Compressed state storage (the PEPA-net builder sets the same gauges
   for its marking keys): bytes per bit-packed key and total arena
   footprint of the most recent build. *)
let packed_key_bytes = Obs.Metrics.gauge "statespace.packed_key_bytes"
let packed_arena_bytes = Obs.Metrics.gauge "statespace.packed_arena_bytes"

(* Every explored vector is bit-packed through the codec before it
   touches a table: the intern structures and the state store hold
   compact [Bytes.t] keys (a handful of bytes each) instead of boxed
   [int array]s (a header plus a word per leaf).  Hashing is FNV-1a
   over the key bytes, computed exactly once per interned key: the
   table stores each slot's hash, so probing and resizing compare
   integers, never rehash keys. *)
let codec_of compiled =
  Statekey.of_cardinalities
    (Array.map
       (fun comp -> Array.length compiled.Compile.components.(comp).Compile.states)
       compiled.Compile.leaf_component)

let build ?(max_states = 1_000_000) ?(symmetry = false) compiled =
  Obs.Span.with_ "statespace.build" (fun span ->
  let obs_on = Obs.Config.enabled () in
  let progress_every = Obs.Config.progress_interval () in
  let collisions = ref 0 in
  (* Replica symmetry: every explored vector is canonicalised before
     interning, so an orbit of permutation-equivalent states collapses
     to one representative (counter abstraction).  Sound because the
     permutations are automorphisms of the labelled chain — the reduced
     chain is its exact ordinary lumping. *)
  let sym = if symmetry then Symmetry.detect compiled else Symmetry.trivial in
  let use_sym = not (Symmetry.is_trivial sym) in
  let hits = ref 0 in
  let canonical vec =
    if use_sym && Symmetry.canonicalise sym vec then incr hits;
    vec
  in
  let codec = codec_of compiled in
  let key_size = Statekey.size codec in
  (* Contiguous packed state store; BFS order doubles as the index
     order, so the work queue is just a cursor into it.  One heap block
     holds every interned state. *)
  let arena = ref (Bytes.create (1024 * (max key_size 1))) in
  let n_states = ref 0 in
  (* Scratch key the candidate vector is packed into before probing. *)
  let scratch = Bytes.create key_size in
  (* Open-addressing intern table: [slots] holds state index + 1 (0 =
     empty), [hashes] the stored hash of that slot's key. *)
  let capacity = ref 4096 in
  let slots = ref (Array.make !capacity 0) in
  let hashes = ref (Array.make !capacity 0) in
  let rehash () =
    let old_slots = !slots and old_hashes = !hashes in
    capacity := !capacity * 2;
    slots := Array.make !capacity 0;
    hashes := Array.make !capacity 0;
    let mask = !capacity - 1 in
    Array.iteri
      (fun k s ->
        if s <> 0 then begin
          let h = old_hashes.(k) in
          let pos = ref (h land mask) in
          while !slots.(!pos) <> 0 do
            pos := (!pos + 1) land mask
          done;
          !slots.(!pos) <- s;
          !hashes.(!pos) <- h
        end)
      old_slots
  in
  let intern vec =
    Statekey.pack_into codec vec scratch 0;
    let h = Statekey.hash scratch in
    let mask = !capacity - 1 in
    let pos = ref (h land mask) in
    let result = ref (-1) in
    while !result < 0 do
      let s = !slots.(!pos) in
      if s = 0 then begin
        if !n_states >= max_states then raise (Too_many_states max_states);
        let i = !n_states in
        if (i + 1) * key_size > Bytes.length !arena then begin
          let bigger = Bytes.create (2 * Bytes.length !arena) in
          Bytes.blit !arena 0 bigger 0 (i * key_size);
          arena := bigger
        end;
        Statekey.blit_key codec scratch !arena i;
        incr n_states;
        !slots.(!pos) <- i + 1;
        !hashes.(!pos) <- h;
        if 4 * !n_states > 3 * !capacity then rehash ();
        result := i
      end
      else if !hashes.(!pos) = h && Statekey.matches codec !arena (s - 1) scratch then
        result := s - 1
      else begin
        incr collisions;
        pos := (!pos + 1) land mask
      end
    done;
    !result
  in
  (* Sources arrive in nondecreasing order (BFS pops states by index),
     as the stream requires. *)
  let stream = Markov.Lts.builder () in
  ignore (intern (canonical (Compile.initial_state compiled)));
  let next = ref 0 in
  while !next < !n_states do
    let src = !next in
    if obs_on then begin
      Obs.Metrics.set frontier_states (float_of_int (!n_states - src));
      if src > 0 && src mod progress_every = 0 then
        Obs.Log.progress ~stage:"statespace.build" ~count:src
          ~detail:
            (Printf.sprintf "%d discovered, %d transitions" !n_states (Markov.Lts.added stream))
    end;
    let vec = Statekey.unpack_at codec !arena src in
    List.iter
      (fun move ->
        let rate =
          match move.Semantics.rate with
          | Rate.Active r -> r
          | Rate.Passive _ ->
              raise
                (Passive_transition
                   {
                     state = Compile.state_label compiled vec;
                     action = Action.to_string move.Semantics.action;
                   })
        in
        let dst = intern (canonical (Semantics.apply vec move.Semantics.deltas)) in
        Markov.Lts.add stream ~src ~dst ~rate move.Semantics.action)
      (Semantics.moves compiled vec);
    incr next
  done;
  let n = !n_states in
  let packed_states = Bytes.sub !arena 0 (n * key_size) in
  let lts = Markov.Lts.finish stream ~n_states:n in
  let count = Markov.Lts.n_transitions lts in
  if obs_on then begin
    Obs.Metrics.add states_explored n;
    Obs.Metrics.add transitions_emitted count;
    Obs.Metrics.add intern_collisions !collisions;
    Obs.Metrics.set packed_key_bytes (float_of_int key_size);
    Obs.Metrics.set packed_arena_bytes (float_of_int (Bytes.length packed_states));
    Obs.Span.add_int span "states" n;
    Obs.Span.add_int span "transitions" count;
    Obs.Span.add_int span "intern_collisions" !collisions;
    Obs.Span.add_int span "packed_key_bytes" key_size;
    if use_sym then begin
      Obs.Metrics.add canonical_hits !hits;
      Obs.Span.add_int span "symmetry_groups" (Symmetry.n_groups sym);
      Obs.Span.add_int span "canonical_hits" !hits
    end
  end;
  { compiled; symmetry = sym; codec; packed = packed_states; lts })

let of_model ?max_states ?symmetry model =
  build ?max_states ?symmetry (Compile.of_model model)

let of_string ?max_states ?symmetry src =
  build ?max_states ?symmetry (Compile.of_string src)

let compiled t = t.compiled
let symmetry t = t.symmetry
let lts t = t.lts
let n_states t = Markov.Lts.n_states t.lts
let n_transitions t = Markov.Lts.n_transitions t.lts

let state t i =
  if i < 0 || i >= n_states t then invalid_arg "Statespace.state: index out of range";
  Statekey.unpack_at t.codec t.packed i

let state_label t i = Compile.state_label t.compiled (state t i)
let initial_index _ = 0

let action_names t =
  List.sort_uniq String.compare
    (List.filter_map Action.name (Array.to_list (Markov.Lts.labels t.lts)))

let ctmc t = Markov.Lts.ctmc t.lts

(* The lump partition's classes must keep every reported measure exact
   under uniform disaggregation.  Ordinary lumpability alone guarantees
   exact class sums, not exact per-state probabilities, so the
   refinement is seeded with a respect key restricting which states may
   ever share a class:

   - with replica symmetry, each state's orbit (its canonicalised leaf
     vector): orbit members have equal steady-state probability (the
     permutations are chain automorphisms), so spreading a class mass
     uniformly is exact per state;
   - otherwise, each state's per-leaf local-label vector: classes are
     then homogeneous in the indicator of every [local_state_probability]
     query, so those measures (and all fluxes) survive even though
     merged states may have unequal probabilities.

   On a space already built with [~symmetry:true] the stored vectors are
   themselves canonical, the orbit keys are distinct per state, and the
   lump pass degenerates to the identity partition — correctly so, since
   distinct representatives are distinguishable by some local measure. *)
let lump_respect t =
  let n = n_states t in
  let keys : (int array, int) Hashtbl.t = Hashtbl.create (2 * n) in
  let next = ref 0 in
  let intern_key v =
    match Hashtbl.find_opt keys v with
    | Some id -> id
    | None ->
        let id = !next in
        Hashtbl.add keys v id;
        incr next;
        id
  in
  let sym =
    if Symmetry.is_trivial t.symmetry then Symmetry.detect t.compiled else t.symmetry
  in
  if not (Symmetry.is_trivial sym) then
    Array.init n (fun i ->
        let c = Statekey.unpack_at t.codec t.packed i in
        ignore (Symmetry.canonicalise sym c);
        intern_key c)
  else begin
    let codes = Hashtbl.create 64 in
    let n_codes = ref 0 in
    let code s =
      match Hashtbl.find_opt codes s with
      | Some c -> c
      | None ->
          let c = !n_codes in
          Hashtbl.add codes s c;
          incr n_codes;
          c
    in
    Array.init n (fun i ->
        let vec = Statekey.unpack_at t.codec t.packed i in
        intern_key
          (Array.mapi
             (fun leaf local -> code (Compile.local_label t.compiled ~leaf ~local))
             vec))
  end

let lump_partition t = Markov.Lts.lump_partition t.lts ~respect:(fun () -> lump_respect t)

let steady_state ?method_ ?options ?(lump = false) ?jobs t =
  let partition = if lump then Some (lump_partition t) else None in
  Markov.Lts.steady_state ?method_ ?options ?jobs ?partition t.lts

(* Each named action type has exactly one interned id, so its
   throughput is that id's entry of the per-label flux table. *)
let throughputs t pi =
  let flux = Markov.Lts.flux t.lts pi in
  let actions = Markov.Lts.labels t.lts in
  List.sort
    (fun (a, _) (b, _) -> String.compare a b)
    (List.filter_map
       (fun id ->
         match Action.name actions.(id) with
         | Some name -> Some (name, flux.(id))
         | None -> None)
       (List.init (Array.length actions) Fun.id))

let throughput t pi name = Option.value ~default:0.0 (List.assoc_opt name (throughputs t pi))

let local_state_probability t pi ~leaf ~label =
  (* Under symmetry reduction a single leaf's column of the canonical
     vectors is not its true marginal (canonicalisation shuffles values
     across the orbit), but the orbit-count is permutation-invariant, so
     averaging over the leaf's orbit recovers the exact measure.  With
     trivial symmetry the orbit is the singleton [leaf] and this is the
     plain sum. *)
  let orbit = Symmetry.orbit t.symmetry leaf in
  let scale = 1.0 /. float_of_int (Array.length orbit) in
  let total = ref 0.0 in
  let key_size = Statekey.size t.codec in
  let vec = Array.make (Statekey.n_fields t.codec) 0 in
  for i = 0 to n_states t - 1 do
    Statekey.unpack_into t.codec t.packed (i * key_size) vec;
    let hits = ref 0 in
    Array.iter
      (fun j -> if Compile.local_label t.compiled ~leaf:j ~local:vec.(j) = label then incr hits)
      orbit;
    if !hits > 0 then total := !total +. (pi.(i) *. float_of_int !hits *. scale)
  done;
  !total

let pp_summary fmt t =
  Format.fprintf fmt "%d states, %d transitions, %d deadlock state(s)" (n_states t)
    (n_transitions t)
    (List.length (Markov.Lts.deadlocks t.lts))
