(** UML activity diagrams with the Baumeister et al. mobility notation.

    The model mirrors what the paper's Figures 1, 2 and 5 draw:

    - control-flow {e nodes}: the initial marker, final markers, action
      states (optionally stereotyped [<<move>>]) and decision diamonds;
    - control-flow {e edges} between nodes;
    - {e object occurrences}: the boxes such as ["f*: FILE"] with an
      optional [atloc = ...] tag recording the object's location at that
      point of the behaviour;
    - {e object flows} connecting occurrences to the activities that
      require or produce them.

    Several occurrences with the same object name denote the same object
    at successive points ([f], [f*], [f**] in Figure 1 are all the
    object [f]). *)

type direction = Into | Out_of

type node_kind =
  | Initial
  | Final
  | Action of { name : string; move : bool }
  | Decision
  | Fork  (** parallel split (Section 6 extension) *)
  | Join  (** parallel synchronisation (Section 6 extension) *)

type node = { node_id : string; kind : node_kind }

type edge = { edge_id : string; source : string; target : string }

type occurrence = {
  occ_id : string;
  obj_name : string;       (** e.g. ["f"] *)
  class_name : string;     (** e.g. ["FILE"] *)
  obj_state : string option;  (** the decoration, e.g. ["*"] or a state name *)
  atloc : string option;   (** location tag, when the diagram is mobile *)
}

type flow = {
  flow_id : string;
  occurrence : string;  (** occurrence id *)
  activity : string;    (** action-state node id *)
  direction : direction;
}

type t = {
  diagram_name : string;
  nodes : node list;
  edges : edge list;
  occurrences : occurrence list;
  flows : flow list;
  annotations : (string * (string * string) list) list;
      (** reflected tagged values per node id, e.g.
          [("n2", \[("throughput", "0.25")\])] *)
}

exception Invalid_diagram of string

type index
(** Hash tables over one diagram's nodes, edges, occurrences and flows.
    Each lookup below costs one table probe plus the size of its answer,
    where a scan of the diagram's lists would cost the diagram's size. *)

val index : t -> index
(** Checks the diagram as {!validate} does, raising {!Invalid_diagram},
    and builds its tables. *)

val validate : t -> unit
(** Checks referential integrity: unique ids, edges and flows referring
    to existing endpoints, exactly one initial node, flows attached to
    action states.  Raises {!Invalid_diagram}. *)

val find_node : index -> string -> node option
val action_nodes : t -> node list
val actions_of_object : index -> string -> string list
(** Ids of action states connected to any occurrence of the object,
    sorted. *)

val object_names : t -> string list
(** Distinct object names, in first-appearance order. *)

val locations : t -> string list
(** Distinct [atloc] values, in first-appearance order. *)

val objects_of_activity : index -> string -> direction -> occurrence list
(** Occurrences flowing into / out of the given action state, in flow
    order. *)

val initial_node : t -> node
val successors : index -> string -> string list
(** Targets of the node's outgoing edges, in edge order. *)

val predecessors : index -> string -> string list

val annotate : t -> node_id:string -> tag:string -> value:string -> t
(** Add (or replace) a reflected tagged value on a node. *)

val annotation : t -> node_id:string -> tag:string -> string option

(** Imperative construction convenience used by examples and tests. *)
module Build : sig
  type diagram = t
  type b

  val create : string -> b
  val initial : b -> string
  val final : b -> string
  val action : ?move:bool -> b -> string -> string
  val decision : b -> string
  val fork : b -> string
  val join : b -> string
  val edge : b -> string -> string -> unit
  val occurrence :
    ?state:string -> ?loc:string -> b -> obj:string -> cls:string -> string
  val flow_into : b -> occ:string -> activity:string -> unit
  val flow_out_of : b -> activity:string -> occ:string -> unit
  val finish : b -> diagram
  (** Runs {!validate}. *)
end
