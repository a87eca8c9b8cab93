module String_set = Pepa.Syntax.String_set
module Rate = Pepa.Rate
module Action = Pepa.Action

type label =
  | Local of Action.t
  | Fire of { action : string; transition : string }

type update = Set_cell of int * Marking.cell_state | Set_static of int * int

type move = { label : label; rate : Rate.t; updates : update list }

exception Mixed_rates of { marking : string; action : string }

(* An apparent rate of [action] summed active and passive instances. *)
let apparent_of compiled marking action f =
  try f () with Rate.Mixed_rates ->
    raise (Mixed_rates { marking = Marking.label compiled marking; action })

let is_firing compiled action =
  match Action.name action with
  | Some n -> String_set.mem n compiled.Net_compile.firing_actions
  | None -> false

(* Activities of one leaf of a place context, excluding firing types for
   cells (those only participate in net-level firings). *)
let leaf_local_moves compiled (marking : Marking.t) leaf =
  match leaf with
  | Net_compile.Lcell { cell; family } -> (
      match marking.Marking.cells.(cell) with
      | Marking.Empty -> []
      | Marking.Tok { token; state } ->
          let component = compiled.Net_compile.families.(family).Net_compile.component in
          Array.to_list component.Pepa.Compile.local_moves.(state)
          |> List.filter_map (fun (action, rate, target) ->
                 if is_firing compiled action then None
                 else
                   Some
                     {
                       label = Local action;
                       rate;
                       updates = [ Set_cell (cell, Marking.Tok { token; state = target }) ];
                     }))
  | Net_compile.Lstatic { static; component } ->
      Array.to_list component.Pepa.Compile.local_moves.(marking.Marking.statics.(static))
      |> List.map (fun (action, rate, target) ->
             { label = Local action; rate; updates = [ Set_static (static, target) ] })

let rec structure_apparent compiled marking structure name =
  match structure with
  | Net_compile.Pleaf leaf ->
      List.fold_left
        (fun acc move ->
          match move.label with
          | Local (Action.Act n) when n = name -> Rate.sum acc move.rate
          | Local _ | Fire _ -> acc)
        Rate.zero
        (leaf_local_moves compiled marking leaf)
  | Net_compile.Pcoop (left, set, right) ->
      let ra_left = structure_apparent compiled marking left name in
      let ra_right = structure_apparent compiled marking right name in
      if String_set.mem name set then Rate.min_rate ra_left ra_right
      else Rate.sum ra_left ra_right

let rec structure_moves compiled marking structure =
  match structure with
  | Net_compile.Pleaf leaf -> leaf_local_moves compiled marking leaf
  | Net_compile.Pcoop (left, set, right) ->
      let left_moves = structure_moves compiled marking left in
      let right_moves = structure_moves compiled marking right in
      let shared = function
        | Local (Action.Act n) -> String_set.mem n set
        | Local Action.Tau | Fire _ -> false
      in
      let solo =
        List.filter (fun m -> not (shared m.label)) left_moves
        @ List.filter (fun m -> not (shared m.label)) right_moves
      in
      let synchronised =
        String_set.fold
          (fun name acc ->
            let matches m = m.label = Local (Action.Act name) in
            let lefts = List.filter matches left_moves in
            let rights = List.filter matches right_moves in
            if lefts = [] || rights = [] then acc
            else begin
              let apparent1, apparent2 =
                apparent_of compiled marking name (fun () ->
                    let apparent1 = structure_apparent compiled marking left name in
                    (apparent1, structure_apparent compiled marking right name))
              in
              List.concat_map
                (fun ml ->
                  List.map
                    (fun mr ->
                      {
                        label = Local (Action.Act name);
                        rate = Rate.cooperation ml.rate ~apparent1 mr.rate ~apparent2;
                        updates = ml.updates @ mr.updates;
                      })
                    rights)
                lefts
              @ acc
            end)
          set []
      in
      solo @ synchronised

let local_moves compiled marking =
  Array.to_list compiled.Net_compile.places
  |> List.concat_map (fun place ->
         structure_moves compiled marking place.Net_compile.structure)

let apparent_local_rate compiled marking ~place name =
  structure_apparent compiled marking compiled.Net_compile.places.(place).Net_compile.structure
    name

(* ------------------------------------------------------------------ *)
(* Firings (Definitions 2-6)                                           *)
(* ------------------------------------------------------------------ *)

(* A candidate: an occupied cell of an input place whose token has an
   alpha-derivative, specialised to one such derivative move. *)
type candidate = { cand_cell : int; cand_token : int; cand_rate : Rate.t; cand_target : int }

let candidates_in compiled (marking : Marking.t) ~place ~action =
  Array.to_list compiled.Net_compile.places.(place).Net_compile.place_cells
  |> List.concat_map (fun cell ->
         match marking.Marking.cells.(cell) with
         | Marking.Empty -> []
         | Marking.Tok { token; state } ->
             let family = compiled.Net_compile.tokens.(token).Net_compile.token_family in
             let component = compiled.Net_compile.families.(family).Net_compile.component in
             Array.to_list component.Pepa.Compile.local_moves.(state)
             |> List.filter_map (fun (a, rate, target) ->
                    if Action.equal a (Action.Act action) then
                      Some { cand_cell = cell; cand_token = token; cand_rate = rate;
                             cand_target = target }
                    else None))

let rec cartesian = function
  | [] -> [ [] ]
  | choices :: rest ->
      let tails = cartesian rest in
      List.concat_map (fun choice -> List.map (fun tail -> choice :: tail) tails) choices

(* All bijections pairing each moved token with a distinct output place
   (by index), returned as orderings of the output-place array. *)
let rec permutations = function
  | [] -> [ [] ]
  | items ->
      List.concat_map
        (fun x ->
          let rest = List.filter (fun y -> y <> x) items in
          List.map (fun perm -> x :: perm) (permutations rest))
        items

(* The phi mappings of Definition 4 for one enabling: assignments of each
   moved token to a vacant, family-compatible cell, with each output
   place receiving exactly one token. *)
let phi_mappings compiled marking ~outputs chosen =
  let k = List.length chosen in
  let indices = List.init k Fun.id in
  List.concat_map
    (fun perm ->
      (* perm.(i) gives the output-place slot of the i-th chosen token *)
      let per_token_cells =
        List.map2
          (fun cand slot ->
            let place = outputs.(slot) in
            let family = compiled.Net_compile.tokens.(cand.cand_token).Net_compile.token_family in
            let vacant = Marking.vacant_cells compiled marking ~place ~family in
            List.map (fun cell -> (cand, cell)) vacant)
          chosen perm
      in
      (* When a place occurs twice among the outputs, two tokens may be
         offered the same vacant cell; such assignments are not
         injective and are discarded. *)
      cartesian per_token_cells
      |> List.filter (fun assignment ->
             let cells = List.map snd assignment in
             List.length (List.sort_uniq compare cells) = List.length cells))
    (permutations indices)

let firing_moves_of compiled marking (transition : Net_compile.transition) =
  let action = transition.Net_compile.t_action in
  let inputs = Array.to_list transition.Net_compile.t_inputs in
  let per_place_candidates =
    List.map (fun place -> candidates_in compiled marking ~place ~action) inputs
  in
  if List.exists (fun cands -> cands = []) per_place_candidates then []
  else begin
    (* Apparent rate contributed by each input place: the sum over its
       candidate derivative moves. *)
    let place_apparents =
      apparent_of compiled marking action (fun () ->
          List.map
            (fun cands ->
              List.fold_left (fun acc c -> Rate.sum acc c.cand_rate) Rate.zero cands)
            per_place_candidates)
    in
    let label_rate = transition.Net_compile.t_rate in
    let bounded =
      List.fold_left Rate.min_rate label_rate place_apparents
    in
    (* When a place occurs twice among the inputs, an enabling must pick
       two distinct tokens from it: drop selections reusing a cell. *)
    let enablings =
      cartesian per_place_candidates
      |> List.filter (fun chosen ->
             let cells = List.map (fun c -> c.cand_cell) chosen in
             List.length (List.sort_uniq compare cells) = List.length cells)
    in
    List.concat_map
      (fun chosen ->
        let share =
          List.fold_left2
            (fun acc cand apparent -> acc *. Rate.share cand.cand_rate ~apparent)
            1.0 chosen place_apparents
        in
        let enabling_rate = Rate.scale share bounded in
        let phis =
          phi_mappings compiled marking ~outputs:transition.Net_compile.t_outputs chosen
        in
        match phis with
        | [] -> []
        | _ ->
            let per_phi = Rate.scale (1.0 /. float_of_int (List.length phis)) enabling_rate in
            List.map
              (fun phi ->
                let empties =
                  List.map (fun cand -> Set_cell (cand.cand_cell, Marking.Empty)) chosen
                in
                let fills =
                  List.map
                    (fun (cand, cell) ->
                      Set_cell
                        (cell, Marking.Tok { token = cand.cand_token; state = cand.cand_target }))
                    phi
                in
                {
                  label = Fire { action; transition = transition.Net_compile.t_name };
                  rate = per_phi;
                  updates = empties @ fills;
                })
              phis)
      enablings
  end

let firings_with_concession compiled marking =
  Array.to_list compiled.Net_compile.transitions
  |> List.filter_map (fun transition ->
         match firing_moves_of compiled marking transition with
         | [] -> None
         | moves -> Some (transition, moves))

let firings compiled marking =
  let with_concession = firings_with_concession compiled marking in
  match with_concession with
  | [] -> []
  | _ ->
      let top =
        List.fold_left
          (fun acc (t, _) -> max acc t.Net_compile.t_priority)
          min_int with_concession
      in
      List.concat_map
        (fun (t, moves) -> if t.Net_compile.t_priority = top then moves else [])
        with_concession

let moves compiled marking = local_moves compiled marking @ firings compiled marking

let apply marking updates =
  List.fold_left
    (fun m update ->
      match update with
      | Set_cell (cell, v) -> Marking.set_cell m cell v
      | Set_static (static, v) -> Marking.set_static m static v)
    marking updates
