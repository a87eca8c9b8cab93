(* The list-based semantics the successor generator ([Pepa.Semantics])
   replaced, kept as the differential tests' reference: every cooperation
   node builds lists of move records and every move copies the state.
   It raises [Pepa.Rate.Mixed_rates], which [Mixed] tags with the action
   whose apparent rate it was computing. *)

open Pepa
open Syntax

exception Mixed of string

type move = { action : Action.t; rate : Rate.t; deltas : (int * int) list }

let leaf_moves compiled state leaf comp =
  let component = compiled.Compile.components.(comp) in
  Array.to_list component.Compile.local_moves.(state.(leaf))
  |> List.map (fun (action, rate, target) -> { action; rate; deltas = [ (leaf, target) ] })

(* Apparent rate of a named action in a subtree. *)
let rec apparent_in compiled state structure name =
  match structure with
  | Compile.Leaf { leaf; comp } ->
      let component = compiled.Compile.components.(comp) in
      Array.fold_left
        (fun acc (action, rate, _) ->
          match action with
          | Action.Act n when n = name -> Rate.sum acc rate
          | Action.Act _ | Action.Tau -> acc)
        Rate.zero
        component.Compile.local_moves.(state.(leaf))
  | Compile.Hide (inner, set) ->
      if String_set.mem name set then Rate.zero else apparent_in compiled state inner name
  | Compile.Coop (left, set, right) ->
      let ra_left = apparent_in compiled state left name in
      let ra_right = apparent_in compiled state right name in
      if String_set.mem name set then Rate.min_rate ra_left ra_right
      else Rate.sum ra_left ra_right

let rec structure_moves compiled state structure =
  match structure with
  | Compile.Leaf { leaf; comp } -> leaf_moves compiled state leaf comp
  | Compile.Hide (inner, set) ->
      List.map
        (fun move ->
          match move.action with
          | Action.Act n when String_set.mem n set -> { move with action = Action.Tau }
          | Action.Act _ | Action.Tau -> move)
        (structure_moves compiled state inner)
  | Compile.Coop (left, set, right) ->
      let left_moves = structure_moves compiled state left in
      let right_moves = structure_moves compiled state right in
      let shared action =
        match action with Action.Act n -> String_set.mem n set | Action.Tau -> false
      in
      let solo =
        List.filter (fun m -> not (shared m.action)) left_moves
        @ List.filter (fun m -> not (shared m.action)) right_moves
      in
      let synchronised =
        String_set.fold
          (fun name acc ->
            let lefts =
              List.filter (fun m -> Action.equal m.action (Action.Act name)) left_moves
            in
            let rights =
              List.filter (fun m -> Action.equal m.action (Action.Act name)) right_moves
            in
            if lefts = [] || rights = [] then acc
            else begin
              let apparent1, apparent2 =
                try
                  let apparent1 = apparent_in compiled state left name in
                  (apparent1, apparent_in compiled state right name)
                with Rate.Mixed_rates -> raise (Mixed name)
              in
              List.concat_map
                (fun ml ->
                  List.map
                    (fun mr ->
                      {
                        action = Action.Act name;
                        rate = Rate.cooperation ml.rate ~apparent1 mr.rate ~apparent2;
                        deltas = ml.deltas @ mr.deltas;
                      })
                    rights)
                lefts
              @ acc
            end)
          set []
      in
      solo @ synchronised

let moves compiled state = structure_moves compiled state compiled.Compile.structure

let apparent_rate compiled state name =
  apparent_in compiled state compiled.Compile.structure name

let apply state deltas =
  let next = Array.copy state in
  List.iter (fun (leaf, local) -> next.(leaf) <- local) deltas;
  next

let enabled_actions compiled state =
  List.fold_left
    (fun acc move -> Action.Set.add move.action acc)
    Action.Set.empty (moves compiled state)
