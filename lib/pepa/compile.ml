open Syntax

type lterm =
  | Lstop
  | Lprefix of Action.t * Rate.t * lterm
  | Lchoice of lterm * lterm
  | Lvar of string

type component = {
  root_label : string;
  states : lterm array;
  labels : string array;
  local_moves : (Action.t * Rate.t * int) array array;
}

type structure =
  | Leaf of { leaf : int; comp : int }
  | Coop of structure * String_set.t * structure
  | Hide of structure * String_set.t

type t = {
  env : Env.t;
  components : component array;
  structure : structure;
  leaf_component : int array;
  initial : int array;
}

exception Compile_error of string

let fail fmt = Format.kasprintf (fun msg -> raise (Compile_error msg)) fmt

(* ------------------------------------------------------------------ *)
(* Sequential terms                                                    *)
(* ------------------------------------------------------------------ *)

let rec seq_term_of_expr env expr =
  match expr with
  | Stop -> Lstop
  | Var name ->
      if Env.is_sequential env name then Lvar name
      else fail "constant %s is model-level and cannot appear inside a sequential term" name
  | Prefix (action, rate, cont) ->
      Lprefix (action, Env.eval_rate env rate, seq_term_of_expr env cont)
  | Choice (a, b) -> Lchoice (seq_term_of_expr env a, seq_term_of_expr env b)
  | Coop _ | Hide _ | Array_rep _ ->
      fail "cooperation, hiding and replication cannot appear inside a sequential term"

let rec lterm_label = function
  | Lstop -> "Stop"
  | Lvar name -> name
  | Lprefix (action, rate, cont) ->
      Printf.sprintf "(%s, %s).%s" (Action.to_string action) (Rate.to_string rate)
        (lterm_label cont)
  | Lchoice (a, b) -> Printf.sprintf "%s + %s" (lterm_label a) (lterm_label b)

(* One-step derivatives of a sequential term.  Constants unfold on the
   fly; a cycle of constants with no intervening prefix is unguarded
   recursion. *)
let term_moves env term =
  let rec go visited = function
    | Lstop -> []
    | Lprefix (action, rate, cont) -> [ (action, rate, cont) ]
    | Lchoice (a, b) -> go visited a @ go visited b
    | Lvar name ->
        if String_set.mem name visited then
          fail "unguarded recursion through constant %s" name
        else go (String_set.add name visited) (seq_term_of_expr env (Env.lookup_process env name))
  in
  go String_set.empty term

let build_component env root =
  let states = Hashtbl.create 16 in
  let order = ref [] in
  let count = ref 0 in
  let intern term =
    match Hashtbl.find_opt states term with
    | Some index -> (index, false)
    | None ->
        let index = !count in
        Hashtbl.add states term index;
        order := term :: !order;
        incr count;
        (index, true)
  in
  let moves_table = Hashtbl.create 16 in
  (* Depth-first with an explicit stack, numbering states in preorder:
     a term gets its index when first reached, and its moves' targets are
     explored left to right before its siblings. *)
  let frames = Stack.create () in
  let reach term =
    let index, fresh = intern term in
    if fresh then Stack.push (index, ref (term_moves env term), ref []) frames;
    index
  in
  ignore (reach root);
  while not (Stack.is_empty frames) do
    let index, pending, resolved = Stack.top frames in
    match !pending with
    | (action, rate, target) :: rest ->
        pending := rest;
        resolved := (action, rate, reach target) :: !resolved
    | [] ->
        ignore (Stack.pop frames);
        Hashtbl.replace moves_table index (List.rev !resolved)
  done;
  let states_arr = Array.of_list (List.rev !order) in
  let labels = Array.map lterm_label states_arr in
  let local_moves =
    Array.init (Array.length states_arr) (fun i ->
        Array.of_list (Hashtbl.find moves_table i))
  in
  { root_label = lterm_label root; states = states_arr; labels; local_moves }

(* ------------------------------------------------------------------ *)
(* Model structure                                                     *)
(* ------------------------------------------------------------------ *)

let compile env =
  let components = ref [] in
  let component_index = Hashtbl.create 8 in
  let n_components = ref 0 in
  let leaf_comps = ref [] in
  let initials = ref [] in
  let n_leaves = ref 0 in
  let add_leaf root =
    let comp =
      match Hashtbl.find_opt component_index root with
      | Some comp -> comp
      | None ->
          let comp = !n_components in
          Hashtbl.add component_index root comp;
          components := build_component env root :: !components;
          incr n_components;
          comp
    in
    let leaf = !n_leaves in
    incr n_leaves;
    leaf_comps := comp :: !leaf_comps;
    (* The root term is always interned first, so its index is 0. *)
    initials := 0 :: !initials;
    Leaf { leaf; comp }
  in
  (* Inline model-level constants; recursion through them was rejected by
     Env, so this terminates. *)
  let rec build expr =
    match expr with
    | Var name when not (Env.is_sequential env name) ->
        build (Env.lookup_process env name)
    | Var _ | Stop | Prefix _ | Choice _ -> add_leaf (seq_term_of_expr env expr)
    | Coop (a, set, b) ->
        let left = build a in
        let right = build b in
        Coop (left, set, right)
    | Hide (p, set) -> Hide (build p, set)
    | Array_rep (p, count) ->
        let rec replicate k =
          if k = 1 then build p else Coop (build p, String_set.empty, replicate (k - 1))
        in
        replicate count
  in
  let structure = build (Env.system env) in
  {
    env;
    components = Array.of_list (List.rev !components);
    structure;
    leaf_component = Array.of_list (List.rev !leaf_comps);
    initial = Array.of_list (List.rev !initials);
  }

let of_model model = compile (Env.of_model model)
let of_string src = of_model (Parser.model_of_string src)

let n_leaves t = Array.length t.initial
let initial_state t = Array.copy t.initial

let local_label t ~leaf ~local = t.components.(t.leaf_component.(leaf)).labels.(local)

let state_label t vec =
  let parts =
    Array.to_list (Array.mapi (fun leaf local -> local_label t ~leaf ~local) vec)
  in
  "(" ^ String.concat ", " parts ^ ")"

let leaf_labels t =
  let counts = Hashtbl.create 8 in
  Array.iter
    (fun comp ->
      let label = t.components.(comp).root_label in
      Hashtbl.replace counts label (1 + Option.value ~default:0 (Hashtbl.find_opt counts label)))
    t.leaf_component;
  let seen = Hashtbl.create 8 in
  Array.map
    (fun comp ->
      let label = t.components.(comp).root_label in
      if Hashtbl.find counts label = 1 then label
      else begin
        let k = 1 + Option.value ~default:0 (Hashtbl.find_opt seen label) in
        Hashtbl.replace seen label k;
        Printf.sprintf "%s#%d" label k
      end)
    t.leaf_component
