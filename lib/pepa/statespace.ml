(* The state store (packed leaf vectors), the symmetry used to build
   it, and the one labelled transition stream derived from it
   ([Markov.Lts]), labelled by action type. *)
type t = {
  compiled : Compile.t;
  symmetry : Symmetry.t;  (* trivial unless built with ~symmetry:true *)
  store : Statekey.store;
  lts : Action.t Markov.Lts.t;
}

exception Too_many_states of int
exception Passive_transition = Semantics.Passive_transition
exception Mixed_rates = Semantics.Mixed_rates

let codec_of compiled =
  Statekey.of_cardinalities
    (Array.map
       (fun comp -> Array.length compiled.Compile.components.(comp).Compile.states)
       compiled.Compile.leaf_component)

(* Replica symmetry: with ~symmetry every explored vector is
   canonicalised before interning, so an orbit of permutation-equivalent
   states collapses to one representative (counter abstraction).  Sound
   because the permutations are automorphisms of the labelled chain —
   the reduced chain is its exact ordinary lumping. *)
let build ?(max_states = 1_000_000) ?(symmetry = false) compiled =
  Obs.Span.with_ "statespace.build" (fun span ->
      let symmetry = if symmetry then Symmetry.detect compiled else Symmetry.trivial in
      let generator = Semantics.compile compiled in
      let stream = Markov.Lts.builder ~labels:(Semantics.labels generator) () in
      let store, lts =
        Statekey.explore (codec_of compiled) ~span ~stage:"statespace.build" ~noun:"states"
          ~symmetry ~max_states ~full:(Too_many_states max_states) ~stream
          ~initial:(Compile.initial_state compiled) (Semantics.successors generator stream)
      in
      { compiled; symmetry; store; lts })

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
  Statekey.get t.store i

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
  let compiled = t.compiled in
  let sym = if Symmetry.is_trivial t.symmetry then Symmetry.detect compiled else t.symmetry in
  let key =
    if not (Symmetry.is_trivial sym) then fun vec -> ignore (Symmetry.canonicalise sym vec)
    else begin
      (* Each local state as the first local state of its component
         with the same label, so equal keys mean equal labels. *)
      let codes =
        Array.map
          (fun (component : Compile.component) ->
            let first = Hashtbl.create 16 in
            Array.mapi
              (fun local label ->
                match Hashtbl.find_opt first label with
                | Some code -> code
                | None ->
                    Hashtbl.add first label local;
                    local)
              component.Compile.labels)
          compiled.Compile.components
      in
      fun vec ->
        Array.iteri
          (fun leaf local -> vec.(leaf) <- codes.(compiled.Compile.leaf_component.(leaf)).(local))
          vec
    end
  in
  let keys = Statekey.store (codec_of compiled) in
  let vec = Array.make (Compile.n_leaves compiled) 0 in
  Array.init (n_states t) (fun i ->
      Statekey.get_into t.store i vec;
      key vec;
      Statekey.intern keys vec)

let lump_partition t = Markov.Lts.lump_partition t.lts ~respect:(fun () -> lump_respect t)

let steady_state ?method_ ?options ?(lump = false) t =
  let partition = if lump then Some (lump_partition t) else None in
  Markov.Lts.steady_state ?method_ ?options ?partition t.lts

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

(* Local-state marginals.  Under symmetry reduction a single leaf's
   column of the canonical vectors is not its true marginal
   (canonicalisation shuffles values across the orbit), but the
   orbit-count is permutation-invariant, so averaging over the leaf's
   orbit recovers the exact measure; with trivial symmetry every orbit
   is its one leaf and this is the plain sum.  Symmetric leaves share a
   component and a marginal, so each orbit is counted once.

   One pass over the states fills every requested orbit's accumulators:
   per state, count the orbit's leaves in each distinct label, then add
   [pi.(i) *. hits *. scale] to each label hit, so every accumulator
   sums its terms in state order. *)
let orbit_marginals t pi orbits =
  let compiled = t.compiled in
  let n_leaves = Compile.n_leaves compiled in
  let labels_of leaf =
    compiled.Compile.components.(compiled.Compile.leaf_component.(leaf)).Compile.labels
  in
  let distinct =
    Array.map
      (fun orbit ->
        Array.of_list (List.sort_uniq String.compare (Array.to_list (labels_of orbit.(0)))))
      orbits
  in
  (* slot.(leaf).(local): the local state's index among its orbit's
     distinct labels. *)
  let slot = Array.make n_leaves [||] in
  Array.iteri
    (fun o orbit ->
      let index = Hashtbl.create (Array.length distinct.(o)) in
      Array.iteri (fun s label -> Hashtbl.replace index label s) distinct.(o);
      Array.iter (fun leaf -> slot.(leaf) <- Array.map (Hashtbl.find index) (labels_of leaf)) orbit)
    orbits;
  let scale = Array.map (fun orbit -> 1.0 /. float_of_int (Array.length orbit)) orbits in
  let hits = Array.map (fun names -> Array.make (Array.length names) 0) distinct in
  let acc = Array.map (fun names -> Array.make (Array.length names) 0.0) distinct in
  let vec = Array.make n_leaves 0 in
  for i = 0 to n_states t - 1 do
    Statekey.get_into t.store i vec;
    for o = 0 to Array.length orbits - 1 do
      let orbit = orbits.(o) and hits = hits.(o) and acc = acc.(o) in
      for m = 0 to Array.length orbit - 1 do
        let leaf = orbit.(m) in
        let s = slot.(leaf).(vec.(leaf)) in
        hits.(s) <- hits.(s) + 1
      done;
      for m = 0 to Array.length orbit - 1 do
        let leaf = orbit.(m) in
        let s = slot.(leaf).(vec.(leaf)) in
        let h = hits.(s) in
        if h > 0 then begin
          acc.(s) <- acc.(s) +. (pi.(i) *. float_of_int h *. scale.(o));
          hits.(s) <- 0
        end
      done
    done
  done;
  Array.mapi
    (fun o names -> List.mapi (fun s label -> (label, acc.(o).(s))) (Array.to_list names))
    distinct

let local_state_distribution t pi ~leaf =
  (orbit_marginals t pi [| Symmetry.orbit t.symmetry leaf |]).(0)

let local_state_distributions t pi =
  let n_leaves = Compile.n_leaves t.compiled in
  (* Each orbit once, at its first leaf in leaf order. *)
  let owner = Array.make n_leaves (-1) in
  let orbits = ref [] and n_orbits = ref 0 in
  for leaf = 0 to n_leaves - 1 do
    if owner.(leaf) < 0 then begin
      let orbit = Symmetry.orbit t.symmetry leaf in
      Array.iter (fun j -> owner.(j) <- !n_orbits) orbit;
      orbits := orbit :: !orbits;
      incr n_orbits
    end
  done;
  let table = orbit_marginals t pi (Array.of_list (List.rev !orbits)) in
  Array.map (fun o -> table.(o)) owner

let local_state_probability t pi ~leaf ~label =
  Option.value ~default:0.0 (List.assoc_opt label (local_state_distribution t pi ~leaf))

let pp_summary fmt t =
  Format.fprintf fmt "%d states, %d transitions, %d deadlock state(s)" (n_states t)
    (n_transitions t)
    (List.length (Markov.Lts.deadlocks t.lts))
