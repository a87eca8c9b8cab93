(* The explored markings (packed keys, decoded on demand) and the one
   labelled transition stream derived from them ([Markov.Lts]),
   labelled by local action or firing. *)
type marking_codec = {
  codec : Pepa.Statekey.t;
  cell_states : int array;  (* family local-state count per cell *)
  cell_values : Marking.cell_state array array;  (* per cell: code -> contents *)
  n_cells : int;
  n_statics : int;
}

type t = {
  compiled : Net_compile.t;
  mc : marking_codec;
  store : Pepa.Statekey.store;
  lts : Net_semantics.label Markov.Lts.t;
}

exception Too_many_markings of int
exception Passive_firing of { marking : string; label : string }
exception Mixed_rates = Net_semantics.Mixed_rates

let label_string = function
  | Net_semantics.Local action -> Pepa.Action.to_string action
  | Net_semantics.Fire { action; transition } -> Printf.sprintf "%s!%s" action transition

(* Interchangeable cells: plain cell leaves of the same token family
   that are members of one maximal same-set cooperation chain inside a
   place's context.  Cooperation over a single set is associative and
   commutative, so permuting the *contents* of such cells is an
   automorphism of the marking graph; tokens keep their identity and
   stay in the same place, so every token- and place-level measure is
   unchanged.  Sorting the contents picks one representative marking
   per orbit — and also merges the branch-per-vacant-cell alternatives
   a firing creates, whose rates [of_arrays] then sums. *)
let cell_symmetry compiled =
  let groups = ref [] in
  let rec flatten set s acc =
    match s with
    | Net_compile.Pcoop (a, s2, b) when Pepa.Syntax.String_set.equal s2 set ->
        flatten set b (flatten set a acc)
    | member -> member :: acc
  in
  let rec walk s =
    match s with
    | Net_compile.Pleaf _ -> ()
    | Net_compile.Pcoop (_, set, _) ->
        let members = List.rev (flatten set s []) in
        List.iter
          (function Net_compile.Pcoop _ as inner -> walk inner | Net_compile.Pleaf _ -> ())
          members;
        let by_family = Hashtbl.create 4 in
        List.iter
          (function
            | Net_compile.Pleaf (Net_compile.Lcell { cell; family }) ->
                Hashtbl.replace by_family family
                  (cell :: Option.value ~default:[] (Hashtbl.find_opt by_family family))
            | Net_compile.Pleaf (Net_compile.Lstatic _) | Net_compile.Pcoop _ -> ())
          members;
        Hashtbl.iter
          (fun _family rev_cells ->
            match rev_cells with
            | [] | [ _ ] -> ()
            | _ ->
                groups := Array.of_list (List.rev_map (fun cell -> [| cell |]) rev_cells) :: !groups)
          by_family
  in
  Array.iter (fun p -> walk p.Net_compile.structure) compiled.Net_compile.places;
  Pepa.Symmetry.of_groups
    ~n_leaves:(Net_compile.n_cells compiled + compiled.Net_compile.n_statics)
    (Array.of_list (List.rev !groups))

(* Bit-packed marking keys: a marking flattens to a vector of bounded
   integers — each cell is [Empty] (0) or [1 + token * family_states +
   state], each static its local state — which {!Pepa.Statekey} packs
   into a few bytes.  Decoding reads a cell's contents from a table per
   token family, so it allocates only the marking's two arrays. *)
let marking_codec compiled =
  let n_cells = Net_compile.n_cells compiled in
  let n_statics = compiled.Net_compile.n_statics in
  let n_tokens = Net_compile.n_tokens compiled in
  let family_states =
    Array.map
      (fun (family : Net_compile.family) ->
        Array.length family.Net_compile.component.Pepa.Compile.states)
      compiled.Net_compile.families
  in
  let family_values =
    Array.map
      (fun states ->
        Array.init
          (1 + (n_tokens * states))
          (function
            | 0 -> Marking.Empty
            | code -> Marking.Tok { token = (code - 1) / states; state = (code - 1) mod states }))
      family_states
  in
  let per_cell table = Array.map (fun family -> table.(family)) compiled.Net_compile.cell_family in
  let cell_states = per_cell family_states and cell_values = per_cell family_values in
  let cards = Array.make (n_cells + n_statics) 1 in
  for cell = 0 to n_cells - 1 do
    cards.(cell) <- Array.length cell_values.(cell)
  done;
  for s = 0 to n_statics - 1 do
    cards.(n_cells + s) <-
      Array.length compiled.Net_compile.static_components.(s).Pepa.Compile.states
  done;
  { codec = Pepa.Statekey.of_cardinalities cards; cell_states; cell_values; n_cells; n_statics }

let encode mc (marking : Marking.t) vec =
  Array.iteri
    (fun cell c ->
      vec.(cell) <-
        (match c with
        | Marking.Empty -> 0
        | Marking.Tok { token; state } -> 1 + (token * mc.cell_states.(cell)) + state))
    marking.Marking.cells;
  Array.blit marking.Marking.statics 0 vec mc.n_cells mc.n_statics

let decode mc vec =
  {
    Marking.cells = Array.init mc.n_cells (fun cell -> mc.cell_values.(cell).(vec.(cell)));
    statics = Array.sub vec mc.n_cells mc.n_statics;
  }

let build ?(max_markings = 1_000_000) ?(symmetry = false) compiled =
  Obs.Span.with_ "net_statespace.build" (fun span ->
      let mc = marking_codec compiled in
      let stream = Markov.Lts.builder () in
      let next = Array.make (mc.n_cells + mc.n_statics) 0 in
      let successors current ~src ~visit =
        let marking = decode mc current in
        List.iter
          (fun move ->
            let rate =
              match move.Net_semantics.rate with
              | Pepa.Rate.Active r -> r
              | Pepa.Rate.Passive _ ->
                  raise
                    (Passive_firing
                       {
                         marking = Marking.label compiled marking;
                         label = label_string move.Net_semantics.label;
                       })
            in
            encode mc (Net_semantics.apply marking move.Net_semantics.updates) next;
            Markov.Lts.add stream ~src ~dst:(visit next) ~rate move.Net_semantics.label)
          (Net_semantics.moves compiled marking)
      in
      let initial = Array.make (mc.n_cells + mc.n_statics) 0 in
      encode mc (Marking.initial compiled) initial;
      let store, lts =
        Pepa.Statekey.explore mc.codec ~span ~stage:"net_statespace.build" ~noun:"markings"
          ~symmetry:(if symmetry then cell_symmetry compiled else Pepa.Symmetry.trivial)
          ~max_states:max_markings ~full:(Too_many_markings max_markings) ~stream ~initial
          successors
      in
      { compiled; mc; store; lts })

let of_string ?max_markings ?symmetry src =
  build ?max_markings ?symmetry (Net_compile.of_string src)

let of_file ?max_markings ?symmetry path =
  build ?max_markings ?symmetry (Net_compile.of_file path)

let compiled t = t.compiled
let lts t = t.lts
let n_markings t = Markov.Lts.n_states t.lts
let n_transitions t = Markov.Lts.n_transitions t.lts
let marking t i = decode t.mc (Pepa.Statekey.get t.store i)
let marking_label t i = Marking.label t.compiled (marking t i)
let initial_index _ = 0

(* Net measures go all the way down to individual markings
   ([marking_probabilities], [Marking.label] in queries), so the only
   classes whose uniform disaggregation is exact for every reported
   measure are cell-permutation orbits: orbit members have equal
   probability (permuting interchangeable cell contents is a chain
   automorphism).  The respect key is therefore each marking's
   canonical form — on a space already built with [~symmetry:true] (or
   one with no interchangeable cells) the keys are distinct per marking
   and the lump pass degenerates to the identity partition. *)
let lump_respect t =
  let sym = cell_symmetry t.compiled in
  let keys = Pepa.Statekey.store t.mc.codec in
  let vec = Array.make (t.mc.n_cells + t.mc.n_statics) 0 in
  Array.init (n_markings t) (fun i ->
      Pepa.Statekey.get_into t.store i vec;
      ignore (Pepa.Symmetry.canonicalise sym vec);
      Pepa.Statekey.intern keys vec)

let lump_partition t = Markov.Lts.lump_partition t.lts ~respect:(fun () -> lump_respect t)

let steady_state ?method_ ?options ?(lump = false) t =
  let partition = if lump then Some (lump_partition t) else None in
  Markov.Lts.steady_state ?method_ ?options ?partition t.lts

let action_names t =
  List.sort_uniq String.compare
    (List.filter_map
       (fun label ->
         match label with
         | Net_semantics.Local action -> Pepa.Action.name action
         | Net_semantics.Fire { action; _ } -> Some action)
       (Array.to_list (Markov.Lts.labels t.lts)))

let pp_summary fmt t =
  Format.fprintf fmt "%d markings, %d transitions, %d deadlock marking(s)" (n_markings t)
    (n_transitions t)
    (List.length (Markov.Lts.deadlocks t.lts))
