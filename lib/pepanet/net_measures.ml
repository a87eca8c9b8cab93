(* All throughput-style measures select from [Markov.Lts.flux]: one
   pass over the transition stream computes the flux of every interned
   label, and each query is then O(#labels) instead of a fresh scan of
   the transitions. *)

let label_matches_action name = function
  | Net_semantics.Local action -> Pepa.Action.name action = Some name
  | Net_semantics.Fire { action; _ } -> action = name

let throughput space pi name =
  let lts = Net_statespace.lts space in
  let labels = Markov.Lts.labels lts in
  let flux = Markov.Lts.flux lts pi in
  let total = ref 0.0 in
  Array.iteri (fun id l -> if label_matches_action name l then total := !total +. flux.(id)) labels;
  !total

let throughputs space pi =
  let lts = Net_statespace.lts space in
  let labels = Markov.Lts.labels lts in
  let flux = Markov.Lts.flux lts pi in
  let totals = Hashtbl.create 16 in
  Array.iteri
    (fun id l ->
      let name =
        match l with
        | Net_semantics.Local action -> Pepa.Action.name action
        | Net_semantics.Fire { action; _ } -> Some action
      in
      match name with
      | Some name ->
          let previous = Option.value ~default:0.0 (Hashtbl.find_opt totals name) in
          Hashtbl.replace totals name (previous +. flux.(id))
      | None -> ())
    labels;
  List.sort
    (fun (a, _) (b, _) -> String.compare a b)
    (Hashtbl.fold (fun name total acc -> (name, total) :: acc) totals [])

let firing_throughput space pi transition_name =
  let lts = Net_statespace.lts space in
  let labels = Markov.Lts.labels lts in
  let flux = Markov.Lts.flux lts pi in
  let total = ref 0.0 in
  Array.iteri
    (fun id l ->
      match l with
      | Net_semantics.Fire { transition; _ } when transition = transition_name ->
          total := !total +. flux.(id)
      | Net_semantics.Fire _ | Net_semantics.Local _ -> ())
    labels;
  !total

let token_location_probabilities space pi ~token =
  let compiled = Net_statespace.compiled space in
  let totals = Array.make (Array.length compiled.Net_compile.places) 0.0 in
  for i = 0 to Net_statespace.n_markings space - 1 do
    match Marking.token_place compiled (Net_statespace.marking space i) token with
    | Some place -> totals.(place) <- totals.(place) +. pi.(i)
    | None -> ()
  done;
  Array.to_list
    (Array.mapi (fun p total -> (Net_compile.place_name compiled p, total)) totals)

let expected_tokens_at space pi ~place =
  let compiled = Net_statespace.compiled space in
  let place_index = Net_compile.place_index compiled place in
  let total = ref 0.0 in
  for i = 0 to Net_statespace.n_markings space - 1 do
    let count =
      List.length (Marking.tokens_at compiled (Net_statespace.marking space i) place_index)
    in
    total := !total +. (pi.(i) *. float_of_int count)
  done;
  !total

let marking_probabilities space pi =
  List.init (Net_statespace.n_markings space) (fun i ->
      (Net_statespace.marking_label space i, pi.(i)))
  |> List.sort (fun (_, a) (_, b) -> Float.compare b a)

let token_state_probability space pi ~token ~state_label =
  let compiled = Net_statespace.compiled space in
  let family = Net_compile.family_of_token compiled token in
  let labels = family.Net_compile.component.Pepa.Compile.labels in
  let total = ref 0.0 in
  for i = 0 to Net_statespace.n_markings space - 1 do
    let m = Net_statespace.marking space i in
    match Marking.token_cell m token with
    | Some cell -> (
        match m.Marking.cells.(cell) with
        | Marking.Tok { state; _ } when labels.(state) = state_label ->
            total := !total +. pi.(i)
        | Marking.Tok _ | Marking.Empty -> ())
    | None -> ()
  done;
  !total
