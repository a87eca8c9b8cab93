type direction = Into | Out_of

type node_kind =
  | Initial
  | Final
  | Action of { name : string; move : bool }
  | Decision
  | Fork
  | Join

type node = { node_id : string; kind : node_kind }

type edge = { edge_id : string; source : string; target : string }

type occurrence = {
  occ_id : string;
  obj_name : string;
  class_name : string;
  obj_state : string option;
  atloc : string option;
}

type flow = { flow_id : string; occurrence : string; activity : string; direction : direction }

type t = {
  diagram_name : string;
  nodes : node list;
  edges : edge list;
  occurrences : occurrence list;
  flows : flow list;
  annotations : (string * (string * string) list) list;
}

exception Invalid_diagram of string

let fail fmt = Format.kasprintf (fun msg -> raise (Invalid_diagram msg)) fmt

(* ------------------------------------------------------------------ *)
(* Lookups                                                             *)
(* ------------------------------------------------------------------ *)

(* The multi-valued tables are filled in reverse, so [Hashtbl.find_all]
   returns each key's values in the diagram's order. *)
type index = {
  node_of_id : (string, node) Hashtbl.t;
  successors_of : (string, string) Hashtbl.t;
  predecessors_of : (string, string) Hashtbl.t;
  occurrence_of_id : (string, occurrence) Hashtbl.t;
  flows_at : (string * direction, occurrence) Hashtbl.t;
  activities_of_object : (string, string) Hashtbl.t;
}

(* Checks referential integrity while it fills the tables, so every id
   in an index is unique. *)
let index d =
  let table items = Hashtbl.create (List.length items) in
  let add_unique what tbl id v =
    if Hashtbl.mem tbl id then fail "duplicate %s id %s" what id else Hashtbl.add tbl id v
  in
  let ix =
    {
      node_of_id = table d.nodes;
      successors_of = table d.edges;
      predecessors_of = table d.edges;
      occurrence_of_id = table d.occurrences;
      flows_at = table d.flows;
      activities_of_object = table d.flows;
    }
  in
  List.iter (fun n -> add_unique "node" ix.node_of_id n.node_id n) d.nodes;
  let edge_ids = table d.edges in
  List.iter (fun e -> add_unique "edge" edge_ids e.edge_id ()) d.edges;
  List.iter (fun o -> add_unique "occurrence" ix.occurrence_of_id o.occ_id o) d.occurrences;
  let flow_ids = table d.flows in
  List.iter (fun f -> add_unique "flow" flow_ids f.flow_id ()) d.flows;
  List.iter
    (fun e ->
      if not (Hashtbl.mem ix.node_of_id e.source) then
        fail "edge %s has unknown source %s" e.edge_id e.source;
      if not (Hashtbl.mem ix.node_of_id e.target) then
        fail "edge %s has unknown target %s" e.edge_id e.target)
    d.edges;
  List.iter
    (fun f ->
      if not (Hashtbl.mem ix.occurrence_of_id f.occurrence) then
        fail "flow %s refers to unknown occurrence %s" f.flow_id f.occurrence;
      match Hashtbl.find_opt ix.node_of_id f.activity with
      | Some { kind = Action _; _ } -> ()
      | Some _ -> fail "flow %s must attach to an action state (%s)" f.flow_id f.activity
      | None -> fail "flow %s refers to unknown node %s" f.flow_id f.activity)
    d.flows;
  (match List.filter (fun n -> n.kind = Initial) d.nodes with
  | [ _ ] -> ()
  | [] -> fail "the diagram has no initial node"
  | _ -> fail "the diagram has more than one initial node");
  List.iter
    (fun e ->
      Hashtbl.add ix.successors_of e.source e.target;
      Hashtbl.add ix.predecessors_of e.target e.source)
    (List.rev d.edges);
  List.iter
    (fun f ->
      let o = Hashtbl.find ix.occurrence_of_id f.occurrence in
      Hashtbl.add ix.flows_at (f.activity, f.direction) o;
      Hashtbl.add ix.activities_of_object o.obj_name f.activity)
    (List.rev d.flows);
  ix

let validate d = ignore (index d)

let find_node ix id = Hashtbl.find_opt ix.node_of_id id
let successors ix id = Hashtbl.find_all ix.successors_of id
let predecessors ix id = Hashtbl.find_all ix.predecessors_of id
let objects_of_activity ix activity direction = Hashtbl.find_all ix.flows_at (activity, direction)

let actions_of_object ix obj =
  List.sort_uniq String.compare (Hashtbl.find_all ix.activities_of_object obj)

let action_nodes d =
  List.filter (fun n -> match n.kind with Action _ -> true | _ -> false) d.nodes

let dedup_keep_order items =
  let seen = Hashtbl.create 8 in
  List.filter
    (fun x ->
      if Hashtbl.mem seen x then false
      else begin
        Hashtbl.add seen x ();
        true
      end)
    items

let object_names d = dedup_keep_order (List.map (fun o -> o.obj_name) d.occurrences)

let locations d = dedup_keep_order (List.filter_map (fun o -> o.atloc) d.occurrences)

let initial_node d =
  match List.find_opt (fun n -> n.kind = Initial) d.nodes with
  | Some n -> n
  | None -> fail "the diagram has no initial node"

let annotate d ~node_id ~tag ~value =
  let existing = Option.value ~default:[] (List.assoc_opt node_id d.annotations) in
  let updated = (tag, value) :: List.remove_assoc tag existing in
  { d with annotations = (node_id, updated) :: List.remove_assoc node_id d.annotations }

let annotation d ~node_id ~tag =
  Option.bind (List.assoc_opt node_id d.annotations) (List.assoc_opt tag)

module Build = struct
  type diagram = t

  type b = {
    name : string;
    mutable fresh : int;
    mutable nodes : node list;
    mutable edges : edge list;
    mutable occurrences : occurrence list;
    mutable flows : flow list;
  }

  let create name = { name; fresh = 0; nodes = []; edges = []; occurrences = []; flows = [] }

  let next b prefix =
    b.fresh <- b.fresh + 1;
    Printf.sprintf "%s%d" prefix b.fresh

  let add_node b kind =
    let node_id = next b "n" in
    b.nodes <- { node_id; kind } :: b.nodes;
    node_id

  let initial b = add_node b Initial
  let final b = add_node b Final
  let action ?(move = false) b name = add_node b (Action { name; move })
  let decision b = add_node b Decision
  let fork b = add_node b Fork
  let join b = add_node b Join

  let edge b source target =
    b.edges <- { edge_id = next b "e"; source; target } :: b.edges

  let occurrence ?state ?loc b ~obj ~cls =
    let occ_id = next b "o" in
    b.occurrences <-
      { occ_id; obj_name = obj; class_name = cls; obj_state = state; atloc = loc }
      :: b.occurrences;
    occ_id

  let flow_into b ~occ ~activity =
    b.flows <-
      { flow_id = next b "f"; occurrence = occ; activity; direction = Into } :: b.flows

  let flow_out_of b ~activity ~occ =
    b.flows <-
      { flow_id = next b "f"; occurrence = occ; activity; direction = Out_of } :: b.flows

  let finish b =
    let d =
      {
        diagram_name = b.name;
        nodes = List.rev b.nodes;
        edges = List.rev b.edges;
        occurrences = List.rev b.occurrences;
        flows = List.rev b.flows;
        annotations = [];
      }
    in
    validate d;
    d
end
