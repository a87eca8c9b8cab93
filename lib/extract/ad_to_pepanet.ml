module A = Uml.Activity
module S = Pepa.Syntax
module String_set = Pepa.Syntax.String_set

type extraction = {
  net : Pepanet.Net.t;
  action_of_node : (string * string) list;
  token_of_object : (string * string) list;
  place_of_location : (string * string) list;
}

exception Extraction_error of string

let fail fmt = Format.kasprintf (fun msg -> raise (Extraction_error msg)) fmt

let action_rate rates action = Uml.Rates_file.rate rates action

let node_kind ix id =
  match A.find_node ix id with
  | Some n -> n.A.kind
  | None -> fail "dangling node reference %s" id

let action_name_of ix id =
  match node_kind ix id with
  | A.Action { name; _ } -> Names.action_name name
  | _ -> fail "node %s is not an action state" id

let is_move ix id =
  match node_kind ix id with A.Action { move; _ } -> move | _ -> false

(* Next relevant activities reachable from [id]'s control successors
   without passing another relevant activity; also reports whether a
   final node is reachable the same way. *)
let nexts ix ~relevant ~from_successors_of:id =
  let visited = Hashtbl.create 16 in
  let found = ref [] in
  let reaches_final = ref false in
  let rec probe id =
    if not (Hashtbl.mem visited id) then begin
      Hashtbl.add visited id ();
      match node_kind ix id with
      | A.Action _ when relevant id -> if not (List.mem id !found) then found := id :: !found
      | A.Final -> reaches_final := true
      | A.Action _ | A.Decision | A.Fork | A.Join | A.Initial ->
          List.iter probe (A.successors ix id)
    end
  in
  List.iter probe (A.successors ix id);
  (List.rev !found, !reaches_final)

(* The location an object occupies around an activity: prefer the
   occurrence flowing out of it (the state after), falling back to the
   occurrence flowing in. *)
let object_location_at ix ~obj ~activity =
  let pick direction =
    A.objects_of_activity ix activity direction
    |> List.find_opt (fun o -> o.A.obj_name = obj)
  in
  match pick A.Out_of with
  | Some o -> o.A.atloc
  | None -> ( match pick A.Into with Some o -> o.A.atloc | None -> None)

(* Membership in a list of ids, by one table probe. *)
let member ids =
  let set = Hashtbl.create (List.length ids) in
  List.iter (fun id -> Hashtbl.replace set id ()) ids;
  Hashtbl.mem set

(* ------------------------------------------------------------------ *)
(* Behaviour construction (tokens and static components)                *)
(* ------------------------------------------------------------------ *)

(* Build the PEPA equations describing the walk over [relevant_ids]
   ([relevant] tests membership) from the [initial] node: one constant
   per relevant activity plus a root constant.  [on_final] supplies the
   continuation expression used where a final node is reachable. *)
let build_behaviour ix ~initial ~relevant ~relevant_ids ~root_name ~state_const ~rate_var ~on_final =
  let defs = ref [] in
  let define name body = defs := S.Proc_def (name, body) :: !defs in
  let continuation (targets, reaches_final) ~at =
    let parts =
      List.map (fun b -> S.Var (state_const b)) targets
      @ (if reaches_final then [ on_final ~at ] else [])
    in
    match parts with
    | [] -> S.Stop
    | first :: rest -> List.fold_left (fun acc p -> S.Choice (acc, p)) first rest
  in
  List.iter
    (fun a ->
      let action = action_name_of ix a in
      let body =
        S.Prefix
          ( Pepa.Action.act action,
            S.Rvar (rate_var action),
            continuation (nexts ix ~relevant ~from_successors_of:a) ~at:(Some a) )
      in
      define (state_const a) body)
    relevant_ids;
  let start_targets, start_final = nexts ix ~relevant ~from_successors_of:initial in
  if relevant_ids <> [] && start_targets = [] && not start_final then
    fail "no activity of %s is reachable from the initial node" root_name;
  define root_name (continuation (start_targets, start_final) ~at:None);
  List.rev !defs

(* Fork support (a Section 6 extension): each walk treats a fork like a
   decision, which is only sound when no single walked behaviour has
   activities on two parallel branches — those would wrongly become
   alternatives.  Reject that configuration explicitly. *)
let check_fork_branches ix ~forks ~relevant ~subject =
  List.iter
    (fun (node : A.node) ->
      let branches_with_activity =
        List.filter
          (fun successor ->
            (* Anything relevant reachable down this branch? *)
            let visited = Hashtbl.create 16 in
            let rec probe id =
              if Hashtbl.mem visited id then false
              else begin
                Hashtbl.add visited id ();
                match node_kind ix id with
                | A.Action _ when relevant id -> true
                | A.Final -> false
                | A.Join -> false (* the fork's scope ends at a join *)
                | A.Action _ | A.Decision | A.Fork | A.Initial ->
                    List.exists probe (A.successors ix id)
              end
            in
            probe successor)
          (A.successors ix node.A.node_id)
      in
      if List.length branches_with_activity > 1 then
        fail
          "%s has activities on %d parallel branches of fork %s; parallel behaviour \
           within one object is outside the supported activity-diagram subset"
          subject
          (List.length branches_with_activity)
          node.A.node_id)
    forks

(* ------------------------------------------------------------------ *)
(* Location tracking for object-less activities                        *)
(* ------------------------------------------------------------------ *)

let assign_static_locations ix ~initial ~mobile ~pinned ~initial_location =
  let table = Hashtbl.create 16 in
  let rec walk id current =
    let current =
      if is_move ix id then
        (* The location after a move is where its outgoing object flow
           points. *)
        match A.objects_of_activity ix id A.Out_of with
        | o :: _ when o.A.atloc <> None -> o.A.atloc
        | _ -> current
      else current
    in
    match Hashtbl.find_opt table id with
    | Some recorded ->
        if mobile && recorded <> current && not (pinned id) then
          fail "activity %s is reached with conflicting locations" id
    | None ->
        Hashtbl.add table id current;
        List.iter (fun next -> walk next current) (A.successors ix id)
  in
  walk initial initial_location;
  fun id -> Option.join (Hashtbl.find_opt table id)

(* ------------------------------------------------------------------ *)
(* Extraction                                                          *)
(* ------------------------------------------------------------------ *)

let extract_untraced ?(rates = Uml.Rates_file.empty) ?(restart = `Cycle) ?(interactions = []) d =
  let ix = A.index d in
  let initial = (A.initial_node d).A.node_id in
  let forks = List.filter (fun (n : A.node) -> n.A.kind = A.Fork) d.A.nodes in
  let locations = A.locations d in
  let mobile = locations <> [] in
  let place_names = Names.Allocator.create Names.constant_name in
  let locations = if mobile then locations else [ "global" ] in
  let place_of_location = List.map (fun l -> (l, Names.Allocator.get place_names l)) locations in
  let place_table = Hashtbl.of_seq (List.to_seq place_of_location) in
  let place_of l =
    match Hashtbl.find_opt place_table l with
    | Some p -> p
    | None -> fail "unknown location %s" l
  in
  let loc_of_object_at ~obj ~activity =
    if mobile then
      match object_location_at ix ~obj ~activity with
      | Some l -> l
      | None -> fail "object %s has no atloc at activity %s of a mobile diagram" obj activity
    else "global"
  in
  let first_recorded_location = Hashtbl.create 16 in
  List.iter
    (fun (o : A.occurrence) ->
      if not (Hashtbl.mem first_recorded_location o.A.obj_name) then
        Hashtbl.add first_recorded_location o.A.obj_name o.A.atloc)
    d.A.occurrences;
  let first_loc obj =
    if mobile then
      match Option.join (Hashtbl.find_opt first_recorded_location obj) with
      | Some l -> l
      | None -> fail "object %s has no recorded location in a mobile diagram" obj
    else "global"
  in
  let objects = A.object_names d in
  let relevant_of_object = List.map (fun obj -> (obj, A.actions_of_object ix obj)) objects in
  List.iter
    (fun (obj, acts) -> if acts = [] then fail "object %s is associated with no activity" obj)
    relevant_of_object;
  let relevant_ids_of = Hashtbl.of_seq (List.to_seq relevant_of_object) in
  (* Mangled action name per node (nodes sharing a UML name share the
     PEPA action type, as in Figure 1's two "close" boxes). *)
  let action_nodes = A.action_nodes d in
  let action_of_node =
    List.map (fun (n : A.node) -> (n.A.node_id, action_name_of ix n.A.node_id)) action_nodes
  in
  (* Token definitions. *)
  let token_consts = Names.Allocator.create Names.constant_name in
  let token_of_object =
    List.map (fun obj -> (obj, Names.Allocator.get token_consts ("Tok_" ^ obj))) objects
  in
  let token_roots = Hashtbl.of_seq (List.to_seq token_of_object) in
  let token_root obj = Hashtbl.find token_roots obj in
  let state_allocators = Hashtbl.create 16 in
  List.iter
    (fun obj ->
      Hashtbl.add state_allocators obj
        (Names.Allocator.create (fun node_id ->
             Names.constant_name
               (Printf.sprintf "%s_%s" (token_root obj) (action_name_of ix node_id)))))
    objects;
  let state_const obj node_id = Names.Allocator.get (Hashtbl.find state_allocators obj) node_id in
  (* Reset bookkeeping: per object, whether a local reset and/or return
     firings are needed. *)
  let return_transitions = ref [] in
  let used_actions = ref String_set.empty in
  let use_action a =
    used_actions := String_set.add a !used_actions;
    a
  in
  let token_defs =
    List.concat_map
      (fun obj ->
        let relevant_ids = Hashtbl.find relevant_ids_of obj in
        let relevant = member relevant_ids in
        check_fork_branches ix ~forks ~relevant ~subject:(Printf.sprintf "object %s" obj);
        List.iter (fun id -> ignore (use_action (action_name_of ix id))) relevant_ids;
        let on_final ~at =
          match restart with
          | `Absorb -> S.Stop
          | `Cycle ->
              let home = first_loc obj in
              let here =
                match at with
                | Some activity -> loc_of_object_at ~obj ~activity
                | None -> home
              in
              let action =
                if here = home then use_action (Names.action_name ("reset_" ^ obj))
                else begin
                  let action = use_action (Names.action_name ("return_" ^ obj)) in
                  let arc = (action, place_of here, place_of home) in
                  if not (List.mem arc !return_transitions) then
                    return_transitions := arc :: !return_transitions;
                  action
                end
              in
              S.Prefix (Pepa.Action.act action, S.Rvar (Names.rate_name action), S.Var (token_root obj))
        in
        build_behaviour ix ~initial ~relevant ~relevant_ids ~root_name:(token_root obj)
          ~state_const:(state_const obj)
          ~rate_var:(fun a -> Names.rate_name (use_action a))
          ~on_final)
      objects
  in
  (* Net transitions from <<move>> activities. *)
  let associated = member (List.concat_map snd relevant_of_object) in
  let object_less = List.filter (fun (n : A.node) -> not (associated n.A.node_id)) action_nodes in
  let move_transitions =
    List.filter_map
      (fun (n : A.node) ->
        if not (is_move ix n.A.node_id) then None
        else begin
          let id = n.A.node_id in
          if not (associated id) then fail "<<move>> activity %s has no associated object flow" id;
          if not mobile then fail "<<move>> activity %s in a diagram without locations" id;
          let in_locs =
            A.objects_of_activity ix id A.Into
            |> List.map (fun o ->
                   match o.A.atloc with
                   | Some l -> place_of l
                   | None -> fail "occurrence %s flowing into move %s has no atloc" o.A.occ_id id)
          in
          let out_locs =
            A.objects_of_activity ix id A.Out_of
            |> List.map (fun o ->
                   match o.A.atloc with
                   | Some l -> place_of l
                   | None ->
                       fail "occurrence %s flowing out of move %s has no atloc" o.A.occ_id id)
          in
          if in_locs = [] then fail "<<move>> activity %s has no incoming object flow" id;
          if List.length in_locs <> List.length out_locs then
            fail "<<move>> activity %s has %d incoming but %d outgoing object flows" id
              (List.length in_locs) (List.length out_locs);
          let action = use_action (action_name_of ix id) in
          Some
            {
              Pepanet.Net.transition_name = "t_" ^ action;
              firing_action = action;
              firing_rate = S.Rvar (Names.rate_name action);
              inputs = in_locs;
              outputs = out_locs;
              priority = 1;
            }
        end)
      action_nodes
  in
  let return_transition_records =
    List.rev !return_transitions
    |> List.map (fun (action, from_place, to_place) ->
           {
             Pepanet.Net.transition_name = Printf.sprintf "t_%s_%s" action from_place;
             firing_action = action;
             firing_rate = S.Rvar (Names.rate_name action);
             inputs = [ from_place ];
             outputs = [ to_place ];
             priority = 1;
           })
  in
  let firing_names =
    String_set.of_list
      (List.map (fun (t : Pepanet.Net.transition) -> t.Pepanet.Net.firing_action)
         (move_transitions @ return_transition_records))
  in
  (* Static components: object-less activities grouped by location. *)
  let static_loc =
    assign_static_locations ix ~initial ~mobile
      ~pinned:(fun id -> A.annotation d ~node_id:id ~tag:"atloc" <> None)
      ~initial_location:
        (if mobile then
           match d.A.occurrences with
           | o :: _ -> o.A.atloc
           | [] -> None
         else Some "global")
  in
  (* An explicit atloc tag on an object-less action state pins its static
     component's location, overriding the walk (a Section 6 extension:
     "tags that define which action is performed by which static
     component could be introduced"). *)
  let static_location_of (n : A.node) =
    match A.annotation d ~node_id:n.A.node_id ~tag:"atloc" with
    | Some pinned ->
        if not (List.mem pinned locations) then
          fail "activity %s is pinned to unknown location %s" n.A.node_id pinned;
        Some pinned
    | None -> static_loc n.A.node_id
  in
  let static_groups =
    List.filter_map
      (fun location ->
        let ids =
          List.filter_map
            (fun (n : A.node) ->
              if static_location_of n = Some location then Some n.A.node_id else None)
            object_less
        in
        if ids = [] then None else Some (location, ids))
      locations
  in
  let static_roots =
    List.map (fun (location, _) -> (location, Names.constant_name ("St_" ^ location)))
      static_groups
  in
  let static_defs =
    List.concat_map
      (fun (location, ids) ->
        let relevant = member ids in
        check_fork_branches ix ~forks ~relevant
          ~subject:(Printf.sprintf "the static component at %s" location);
        let root = List.assoc location static_roots in
        let alloc =
          Names.Allocator.create (fun node_id ->
              Names.constant_name (Printf.sprintf "%s_%s" root (action_name_of ix node_id)))
        in
        List.iter (fun id -> ignore (use_action (action_name_of ix id))) ids;
        build_behaviour ix ~initial ~relevant ~relevant_ids:ids ~root_name:root
          ~state_const:(Names.Allocator.get alloc)
          ~rate_var:(fun a -> Names.rate_name (use_action a))
          ~on_final:(fun ~at:_ -> S.Var root))
      static_groups
  in
  (* Places. *)
  let shared_actions = Hashtbl.create 16 in
  List.iter
    (fun (obj, ids) ->
      Hashtbl.add shared_actions obj (String_set.of_list (List.map (action_name_of ix) ids)))
    relevant_of_object;
  let shared_actions_of obj = Hashtbl.find shared_actions obj in
  (* Which objects have an occurrence at which location. *)
  let resides = Hashtbl.create 64 in
  List.iter
    (fun (o : A.occurrence) ->
      Hashtbl.replace resides (o.A.obj_name, if mobile then o.A.atloc else None) ())
    d.A.occurrences;
  let places =
    List.map
      (fun location ->
        let place_name = place_of location in
        let residents =
          List.filter
            (fun obj -> Hashtbl.mem resides (obj, if mobile then Some location else None))
            objects
        in
        if residents = [] then
          fail "location %s is mentioned in atloc tags but hosts no object" location;
        let cell obj =
          let initial =
            if first_loc obj = location then Some (token_root obj) else None
          in
          Pepanet.Net.Cell { cell_type = token_root obj; initial_token = initial }
        in
        (* The cooperation set between a new cell and the cells already
           composed: per earlier object, the activities the two objects
           share, filtered through the interaction diagrams when any were
           supplied (a Section 6 extension). *)
        let pair_shared o1 o2 =
          String_set.inter (shared_actions_of o1) (shared_actions_of o2)
          |> String_set.filter (fun a -> Uml.Interaction.allows interactions ~action:a o1 o2)
          |> fun set -> String_set.diff set firing_names
        in
        let context, _earlier =
          List.fold_left
            (fun (ctx, earlier) obj ->
              match ctx with
              | None -> (Some (cell obj), [ obj ])
              | Some c ->
                  let coop_set =
                    List.fold_left
                      (fun acc other -> String_set.union acc (pair_shared other obj))
                      String_set.empty earlier
                  in
                  (Some (Pepanet.Net.Ctx_coop (c, coop_set, cell obj)), obj :: earlier))
            (None, []) residents
        in
        let context = Option.get context in
        let context =
          match List.assoc_opt location static_roots with
          | None -> context
          | Some root ->
              let static_actions =
                String_set.of_list
                  (List.concat_map
                     (fun (loc, ids) ->
                       if loc = location then List.map (action_name_of ix) ids else [])
                     static_groups)
              in
              let token_actions =
                List.fold_left
                  (fun acc obj -> String_set.union acc (shared_actions_of obj))
                  String_set.empty residents
              in
              Pepanet.Net.Ctx_coop
                ( context,
                  String_set.diff (String_set.inter static_actions token_actions) firing_names,
                  Pepanet.Net.Static root )
        in
        { Pepanet.Net.place_name; context })
      locations
  in
  (* Rate parameter definitions for every used action. *)
  let rate_defs =
    String_set.elements !used_actions
    |> List.map (fun action ->
           S.Rate_def (Names.rate_name action, S.Rnum (action_rate rates action)))
  in
  let net =
    {
      Pepanet.Net.definitions = rate_defs @ token_defs @ static_defs;
      token_types = List.map snd token_of_object;
      places;
      transitions = move_transitions @ return_transition_records;
    }
  in
  { net; action_of_node; token_of_object; place_of_location }

let extract ?rates ?restart ?interactions d =
  Obs.Span.with_ "extract.activity" (fun span ->
      Obs.Span.add_str span "diagram" d.Uml.Activity.diagram_name;
      let extraction = extract_untraced ?rates ?restart ?interactions d in
      Obs.Span.add_int span "places" (List.length extraction.net.Pepanet.Net.places);
      Obs.Span.add_int span "transitions"
        (List.length extraction.net.Pepanet.Net.transitions);
      extraction)
