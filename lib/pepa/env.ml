open Syntax
module String_map = Map.Make (String)

exception Semantic_error of string

type t = {
  model : Syntax.model;
  rates : float String_map.t;
  rate_order : string list;
  procs : Syntax.expr String_map.t;
  sequential : String_set.t;
  alphabets : String_set.t String_map.t;
}

let fail fmt = Format.kasprintf (fun msg -> raise (Semantic_error msg)) fmt

(* ------------------------------------------------------------------ *)
(* Rate evaluation                                                     *)
(* ------------------------------------------------------------------ *)

let eval_rate_with rates expr =
  let rec eval = function
    | Rnum v -> Rate.Active v
    | Rpassive w ->
        if w <= 0.0 || not (Float.is_finite w) then fail "passive weight must be positive";
        Rate.Passive w
    | Rvar name -> (
        match String_map.find_opt name rates with
        | Some v -> Rate.Active v
        | None -> fail "unknown rate parameter %s" name)
    | Radd (a, b) -> arith ( +. ) "+" a b
    | Rsub (a, b) -> arith ( -. ) "-" a b
    | Rmul (a, b) -> arith ( *. ) "*" a b
    | Rdiv (a, b) -> arith ( /. ) "/" a b
  and arith op symbol a b =
    match (eval a, eval b) with
    | Rate.Active x, Rate.Active y -> Rate.Active (op x y)
    | _ -> fail "passive rates cannot appear under the %s operator" symbol
  in
  match eval expr with
  | Rate.Active v when v <= 0.0 || not (Float.is_finite v) ->
      fail "rate expression evaluates to the non-positive value %g" v
  | rate -> rate

let resolve_rates definitions =
  (* Rate definitions may reference earlier rate definitions only, which
     rules out cycles by construction. *)
  List.fold_left
    (fun (rates, order) def ->
      match def with
      | Proc_def _ -> (rates, order)
      | Rate_def (name, body) ->
          if String_map.mem name rates then fail "duplicate rate definition %s" name;
          let value =
            match eval_rate_with rates body with
            | Rate.Active v -> v
            | Rate.Passive _ -> fail "rate parameter %s cannot be passive" name
          in
          (String_map.add name value rates, name :: order))
    (String_map.empty, []) definitions
  |> fun (rates, order) -> (rates, List.rev order)

(* ------------------------------------------------------------------ *)
(* Process classification                                              *)
(* ------------------------------------------------------------------ *)

let collect_procs definitions =
  List.fold_left
    (fun procs def ->
      match def with
      | Rate_def _ -> procs
      | Proc_def (name, body) ->
          if String_map.mem name procs then fail "duplicate process definition %s" name;
          String_map.add name body procs)
    String_map.empty definitions

let check_defined procs system =
  let check_expr context expr =
    String_set.iter
      (fun v ->
        if not (String_map.mem v procs) then
          fail "undefined process constant %s (referenced from %s)" v context)
      (free_vars expr)
  in
  String_map.iter (fun name body -> check_expr name body) procs;
  check_expr "the system equation" system

(* Choice and prefix continuations must be sequential: their operands may
   only use sequential operators and sequential constants. *)
let check_operators sequential procs system =
  (* The operand's description is only formatted for an error. *)
  let check_sequential operand context expr =
    if not (is_sequential_shape expr) then
      fail "%s in %s must be sequential but uses cooperation, hiding or replication" operand
        context;
    String_set.iter
      (fun v ->
        if not (String_set.mem v sequential) then
          fail "%s in %s refers to the model-level constant %s" operand context v)
      (free_vars expr)
  in
  let rec walk context expr =
    match expr with
    | Stop | Var _ -> ()
    | Prefix (_, _, cont) -> check_sequential "the continuation of a prefix" context cont
    | Choice (a, b) ->
        check_sequential "the left operand of a choice" context a;
        check_sequential "the right operand of a choice" context b
    | Coop (a, _, b) ->
        walk context a;
        walk context b
    | Hide (p, _) | Array_rep (p, _) -> walk context p
  in
  String_map.iter (fun name body -> walk ("definition " ^ name) body) procs;
  walk "the system equation" system

(* Model-level recursion is illegal: inlining model-level constants must
   terminate.  A depth-first search from the system equation, then from
   each model-level name in name order, reports the first cycle it meets
   as the path from its start to the repeated name.  A name whose search
   finished without meeting a cycle cannot lie on one, so it is searched
   once; the search keeps its own stack. *)
let check_model_recursion sequential procs system =
  (* The model-level constants an expression inlines, left to right. *)
  let inlined expr =
    let rec go acc = function
      | Stop | Prefix _ | Choice _ -> acc
      | Var v -> if String_set.mem v sequential then acc else v :: acc
      | Coop (a, _, b) -> go (go acc a) b
      | Hide (p, _) | Array_rep (p, _) -> go acc p
    in
    List.rev (go [] expr)
  in
  let on_trail = Hashtbl.create 16 and finished = Hashtbl.create 16 in
  (* Each frame holds the trail to its owner, most recent first, and the
     constants its owner's body has left to search. *)
  let rec search = function
    | [] -> ()
    | (trail, []) :: outer ->
        (match trail with
        | owner :: _ ->
            Hashtbl.remove on_trail owner;
            Hashtbl.replace finished owner ()
        | [] -> ());
        search outer
    | (trail, v :: rest) :: outer ->
        if Hashtbl.mem on_trail v then
          fail "recursion through the model-level constant %s (cycle: %s)" v
            (String.concat " -> " (List.rev (v :: trail)))
        else if Hashtbl.mem finished v then search ((trail, rest) :: outer)
        else begin
          Hashtbl.replace on_trail v ();
          search ((v :: trail, inlined (String_map.find v procs)) :: (trail, rest) :: outer)
        end
  in
  search [ ([], inlined system) ];
  String_map.iter
    (fun name body ->
      if not (String_set.mem name sequential || Hashtbl.mem finished name) then begin
        Hashtbl.replace on_trail name ();
        search [ ([ name ], inlined body) ]
      end)
    procs

(* ------------------------------------------------------------------ *)
(* Classification and alphabets                                        *)
(* ------------------------------------------------------------------ *)

let add_named_actions acc expr =
  Action.Set.fold
    (fun a acc -> match Action.name a with Some n -> String_set.add n acc | None -> acc)
    (actions expr) acc

(* Components often reach one successor component along several edges;
   [String_set.union] has no shortcut for physically equal sets. *)
let union a b = if a == b then a else String_set.union a b

(* A name is model-level if its body uses cooperation, hiding or
   replication, or references a model-level name.  Its alphabet is its
   body's named actions plus the alphabets of the names it references.
   Both are closures over the reference graph, so the members of a
   strongly connected component share them.  Tarjan's algorithm settles
   components in reverse topological order, each from its members'
   bodies and the already settled components they reference: one pass
   over the graph.  The depth-first search keeps its own stack, so a
   long chain of definitions does not grow the OCaml stack.  Returns
   the sequential names and every name's alphabet. *)
let classify procs =
  let bindings = Array.of_list (String_map.bindings procs) in
  let n = Array.length bindings in
  let id = Hashtbl.create n in
  Array.iteri (fun i (name, _) -> Hashtbl.replace id name i) bindings;
  let refs =
    Array.map
      (fun (_, body) ->
        Array.of_list (List.map (Hashtbl.find id) (String_set.elements (free_vars body))))
      bindings
  in
  let index = Array.make n (-1) and low = Array.make n 0 and cursor = Array.make n 0 in
  (* The root of a settled name's component; -1 until then. *)
  let root_of = Array.make n (-1) in
  let alphabet = Array.make n String_set.empty and model_level = Array.make n false in
  let unsettled = Stack.create () and path = Stack.create () in
  let count = ref 0 in
  let enter v =
    index.(v) <- !count;
    low.(v) <- !count;
    incr count;
    Stack.push v unsettled;
    Stack.push v path
  in
  let settle root =
    let rec pop members =
      let v = Stack.pop unsettled in
      root_of.(v) <- root;
      if v = root then v :: members else pop (v :: members)
    in
    let members = pop [] in
    let alpha, model =
      List.fold_left
        (fun (alpha, model) v ->
          let body = snd bindings.(v) in
          Array.fold_left
            (fun (alpha, model) w ->
              if root_of.(w) = root then (alpha, model)
              else (union alphabet.(w) alpha, model || model_level.(w)))
            (add_named_actions alpha body, model || not (is_sequential_shape body))
            refs.(v))
        (String_set.empty, false) members
    in
    List.iter
      (fun v ->
        alphabet.(v) <- alpha;
        model_level.(v) <- model)
      members
  in
  for start = 0 to n - 1 do
    if index.(start) < 0 then begin
      enter start;
      while not (Stack.is_empty path) do
        let v = Stack.top path in
        if cursor.(v) < Array.length refs.(v) then begin
          let w = refs.(v).(cursor.(v)) in
          cursor.(v) <- cursor.(v) + 1;
          if index.(w) < 0 then enter w
          else if root_of.(w) < 0 then low.(v) <- min low.(v) index.(w)
        end
        else begin
          ignore (Stack.pop path);
          if low.(v) = index.(v) then settle v;
          if not (Stack.is_empty path) then begin
            let u = Stack.top path in
            low.(u) <- min low.(u) low.(v)
          end
        end
      done
    end
  done;
  let sequential =
    Array.to_list bindings
    |> List.filteri (fun i _ -> not model_level.(i))
    |> List.map fst |> String_set.of_list
  in
  (sequential, String_map.mapi (fun name _ -> alphabet.(Hashtbl.find id name)) procs)

(* Named actions of an expression plus the alphabets of the names it
   references. *)
let alphabet_of_expr alphabets expr =
  String_set.fold
    (fun v acc ->
      match String_map.find_opt v alphabets with Some set -> union set acc | None -> acc)
    (free_vars expr)
    (add_named_actions String_set.empty expr)

(* ------------------------------------------------------------------ *)
(* Warnings                                                            *)
(* ------------------------------------------------------------------ *)

let compute_warnings procs system alphabets =
  let warnings = ref [] in
  let warn fmt = Format.kasprintf (fun msg -> warnings := msg :: !warnings) fmt in
  (* Cooperation sets should intersect both participants' alphabets. *)
  let rec scan context expr =
    match expr with
    | Stop | Var _ | Prefix _ | Choice _ -> ()
    | Coop (a, set, b) ->
        let alpha_a = alphabet_of_expr alphabets a in
        let alpha_b = alphabet_of_expr alphabets b in
        String_set.iter
          (fun action ->
            if not (String_set.mem action alpha_a) || not (String_set.mem action alpha_b) then
              warn
                "cooperation on %s in %s: the action is not in both participants' alphabets, \
                 so it can never occur"
                action context)
          set;
        scan context a;
        scan context b
    | Hide (p, _) | Array_rep (p, _) -> scan context p
  in
  String_map.iter (fun name body -> scan ("definition " ^ name) body) procs;
  scan "the system equation" system;
  (* Unreferenced definitions. *)
  let reachable = ref (free_vars system) in
  let frontier = ref (free_vars system) in
  while not (String_set.is_empty !frontier) do
    let next =
      String_set.fold
        (fun name acc ->
          match String_map.find_opt name procs with
          | Some body -> String_set.union acc (String_set.diff (free_vars body) !reachable)
          | None -> acc)
        !frontier String_set.empty
    in
    reachable := String_set.union !reachable next;
    frontier := next
  done;
  String_map.iter
    (fun name _ ->
      if not (String_set.mem name !reachable) then
        warn "process %s is never reachable from the system equation" name)
    procs;
  List.rev !warnings

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

let of_model model =
  let rates, rate_order = resolve_rates model.definitions in
  let procs = collect_procs model.definitions in
  check_defined procs model.system;
  let sequential, alphabets = classify procs in
  check_operators sequential procs model.system;
  check_model_recursion sequential procs model.system;
  (* Force evaluation of every activity rate so errors surface here. *)
  let rec check_rates expr =
    match expr with
    | Stop | Var _ -> ()
    | Prefix (_, rate, cont) ->
        ignore (eval_rate_with rates rate);
        check_rates cont
    | Choice (a, b) | Coop (a, _, b) ->
        check_rates a;
        check_rates b
    | Hide (p, _) | Array_rep (p, _) -> check_rates p
  in
  String_map.iter (fun _ body -> check_rates body) procs;
  check_rates model.system;
  { model; rates; rate_order; procs; sequential; alphabets }

let model t = t.model
let system t = t.model.system

let rate_parameters t =
  List.map (fun name -> (name, String_map.find name t.rates)) t.rate_order

let eval_rate t expr = eval_rate_with t.rates expr

let lookup_process t name =
  match String_map.find_opt name t.procs with
  | Some body -> body
  | None -> fail "undefined process constant %s" name

let is_sequential t name = String_set.mem name t.sequential

let process_names t = List.map fst (String_map.bindings t.procs)

let alphabet t expr = alphabet_of_expr t.alphabets expr

let warnings t = compute_warnings t.procs t.model.system t.alphabets
