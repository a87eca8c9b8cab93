(* Env's classification and alphabets, computed in one pass over the
   strongly connected components of the definition graph, and its
   search for model-level recursion, checked against a naive reference
   that closes each name's references separately and expands every path
   afresh.  Plus their cost: linear in the definitions. *)

module S = Pepa.Syntax
module SS = S.String_set

let named_actions expr =
  Pepa.Action.Set.fold
    (fun a acc -> match Pepa.Action.name a with Some n -> SS.add n acc | None -> acc)
    (S.actions expr) SS.empty

let procs_of model =
  List.filter_map
    (function S.Proc_def (name, body) -> Some (name, body) | S.Rate_def _ -> None)
    model.S.definitions
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* The names reachable from [roots] through [free_vars], the roots
   included. *)
let closure procs roots =
  let rec go seen = function
    | [] -> seen
    | v :: rest when SS.mem v seen -> go seen rest
    | v :: rest -> go (SS.add v seen) (SS.elements (S.free_vars (List.assoc v procs)) @ rest)
  in
  go SS.empty roots

type reference = {
  alphabet : (string * SS.t) list;
  sequential : SS.t;
  warnings : string list;
}

(* Model-level recursion found by expanding every path afresh, keeping
   the path in a list: the first cycle met, searching from the system
   equation and then from each model-level name in name order. *)
let recursion_error procs sequential system =
  let rec visit trail name =
    if List.mem name trail then
      Some
        (Printf.sprintf "recursion through the model-level constant %s (cycle: %s)" name
           (String.concat " -> " (List.rev (name :: trail))))
    else expand (name :: trail) (List.assoc name procs)
  and expand trail = function
    | S.Stop | S.Prefix _ | S.Choice _ -> None
    | S.Var v -> if SS.mem v sequential then None else visit trail v
    | S.Coop (a, _, b) -> ( match expand trail a with None -> expand trail b | found -> found)
    | S.Hide (p, _) | S.Array_rep (p, _) -> expand trail p
  in
  match expand [] system with
  | Some _ as found -> found
  | None ->
      List.find_map
        (fun (name, body) -> if SS.mem name sequential then None else expand [ name ] body)
        procs

(* The cooperation and reachability warnings, in Env's order, from the
   reference alphabets. *)
let reference_warnings procs alphabet system =
  let alphabet_of_expr expr =
    SS.fold
      (fun v acc -> SS.union (List.assoc v alphabet) acc)
      (S.free_vars expr) (named_actions expr)
  in
  let warnings = ref [] in
  let rec scan context = function
    | S.Stop | S.Var _ | S.Prefix _ | S.Choice _ -> ()
    | S.Coop (a, set, b) ->
        let alpha_a = alphabet_of_expr a and alpha_b = alphabet_of_expr b in
        SS.iter
          (fun action ->
            if not (SS.mem action alpha_a && SS.mem action alpha_b) then
              warnings :=
                Printf.sprintf
                  "cooperation on %s in %s: the action is not in both participants' \
                   alphabets, so it can never occur"
                  action context
                :: !warnings)
          set;
        scan context a;
        scan context b
    | S.Hide (p, _) | S.Array_rep (p, _) -> scan context p
  in
  List.iter (fun (name, body) -> scan ("definition " ^ name) body) procs;
  scan "the system equation" system;
  let reachable = closure procs (SS.elements (S.free_vars system)) in
  List.iter
    (fun (name, _) ->
      if not (SS.mem name reachable) then
        warnings :=
          Printf.sprintf "process %s is never reachable from the system equation" name
          :: !warnings)
    procs;
  List.rev !warnings

let reference model =
  let procs = procs_of model in
  let alphabet =
    List.map
      (fun (name, _) ->
        ( name,
          SS.fold
            (fun m acc -> SS.union (named_actions (List.assoc m procs)) acc)
            (closure procs [ name ]) SS.empty ))
      procs
  in
  let sequential =
    List.filter
      (fun (name, _) ->
        SS.for_all
          (fun m -> S.is_sequential_shape (List.assoc m procs))
          (closure procs [ name ]))
      procs
    |> List.map fst |> SS.of_list
  in
  match recursion_error procs sequential model.S.system with
  | Some message -> Error message
  | None ->
      Ok { alphabet; sequential; warnings = reference_warnings procs alphabet model.S.system }

(* Env accepts the model exactly when the reference does, and then
   agrees on every alphabet, the sequential names and the warnings; it
   rejects it with the reference's message otherwise. *)
let agrees_with_reference model =
  let outcome =
    match Pepa.Env.of_model model with
    | env -> Ok env
    | exception Pepa.Env.Semantic_error message -> Error message
  in
  match (reference model, outcome) with
  | Error expected, Error message -> expected = message
  | Ok _, Error _ | Error _, Ok _ -> false
  | Ok expected, Ok env ->
      List.for_all
        (fun (name, alpha) -> SS.equal alpha (Pepa.Env.alphabet env (S.Var name)))
        expected.alphabet
      && SS.equal expected.sequential
           (SS.of_list (List.filter (Pepa.Env.is_sequential env) (Pepa.Env.process_names env)))
      && expected.warnings = Pepa.Env.warnings env

let prop_generated_terms =
  QCheck2.Test.make ~name:"Env = naive reference on generated terms" ~count:100
    ~print:(fun s -> s)
    Test_aggregate.gen_model
    (fun source -> agrees_with_reference (Pepa.Parser.model_of_string source))

(* Random definition graphs: sequential names [Si] reference one another
   freely (guarded or not, so cycles of every shape occur); model-level
   names [Mi] cooperate, hide or replicate sequential names and
   model-level ones, or alias a model-level one.  In two graphs of three
   a model-level name references only earlier ones, so Env accepts the
   graph; in the third, model-level cycles are possible and Env must
   report the reference's first cycle.  Cooperation sets may name an
   action nobody performs, and unreferenced names are common, so both
   warnings occur. *)
let gen_graph =
  let open QCheck2.Gen in
  let pool = [ "a"; "b"; "c"; "d" ] in
  let action = frequency [ (6, map Pepa.Action.act (oneofl pool)); (1, pure Pepa.Action.tau) ] in
  let set = map SS.of_list (list_size (int_range 0 3) (oneofl ("z" :: pool))) in
  int_range 1 8 >>= fun n_seq ->
  int_range 0 5 >>= fun n_model ->
  frequency [ (2, pure false); (1, pure true) ] >>= fun cyclic ->
  let seq_var = map (fun j -> S.Var (Printf.sprintf "S%d" j)) (int_bound (n_seq - 1)) in
  (* The model-level names the [i]th one, or the system when
     [i = n_model], may reference. *)
  let visible i = if cyclic then n_model else i in
  let model_var i = map (fun j -> S.Var (Printf.sprintf "M%d" j)) (int_bound (visible i - 1)) in
  let branch =
    map2 (fun a target -> S.Prefix (a, S.Rnum 1.0, target)) action
      (frequency [ (4, seq_var); (1, pure S.Stop) ])
  in
  let seq_body =
    frequency
      [
        ( 5,
          map
            (fun bs -> List.fold_left (fun acc b -> S.Choice (acc, b)) (List.hd bs) (List.tl bs))
            (list_size (int_range 1 3) branch) );
        (1, seq_var);
      ]
  in
  let operand i = if visible i = 0 then seq_var else oneof [ seq_var; model_var i ] in
  let model_body i =
    oneof
      ([
         map3 (fun a s b -> S.Coop (a, s, b)) (operand i) set (operand i);
         map2 (fun p s -> S.Hide (p, s)) (operand i) set;
         map2 (fun p k -> S.Array_rep (p, k)) seq_var (int_range 1 3);
       ]
      @ if visible i = 0 then [] else [ model_var i ])
  in
  list_repeat n_seq seq_body >>= fun seq_bodies ->
  flatten_l (List.init n_model model_body) >>= fun model_bodies ->
  oneof
    [ operand n_model; map3 (fun a s b -> S.Coop (a, s, b)) (operand n_model) set (operand n_model) ]
  >|= fun system ->
  let defs prefix bodies = List.mapi (fun i b -> S.Proc_def (Printf.sprintf "%s%d" prefix i, b)) bodies in
  { S.definitions = defs "S" seq_bodies @ defs "M" model_bodies; system }

let prop_random_graphs =
  QCheck2.Test.make ~name:"Env = naive reference on random definition graphs" ~count:300
    ~print:Pepa.Printer.model_to_string gen_graph agrees_with_reference

(* A chain of [n] definitions with distinct actions,
   [P0 = (a0, r).P1; ...; P(n-1) = (a(n-1), r).Stop], as a parsed model
   would hold it. *)
let chain n =
  let name i = Printf.sprintf "P%05d" i in
  let body i =
    let cont = if i = n - 1 then S.Stop else S.Var (name (i + 1)) in
    S.Prefix (Pepa.Action.act (Printf.sprintf "a%d" i), S.Rvar "r", cont)
  in
  {
    S.definitions = S.Rate_def ("r", S.Rnum 1.0) :: List.init n (fun i -> S.Proc_def (name i, body i));
    system = S.Var (name 0);
  }

(* A chain of [n] model-level aliases, [M0 = M1; ...; M(n-1) = P <a> P]. *)
let aliases n =
  let name i = Printf.sprintf "M%05d" i in
  let p = S.Var "P" in
  let body i = if i = n - 1 then S.Coop (p, SS.singleton "a", p) else S.Var (name (i + 1)) in
  {
    S.definitions =
      S.Proc_def ("P", S.Prefix (Pepa.Action.act "a", S.Rnum 1.0, p))
      :: List.init n (fun i -> S.Proc_def (name i, body i));
    system = S.Var (name 0);
  }

(* Checking either chain and listing its warnings allocates 450-550
   words per definition; along the first, the alphabets share structure
   and cost n log n words in set paths.  The budget is 1,000 words per
   definition.  On the first chain, the former alphabet fixpoint
   re-unioned every alphabet on every sweep and allocated 2.8M words per
   definition at n = 1,000; on the second, the former recursion check
   expanded every alias's whole chain afresh, in cubic time. *)
let test_chains_allocate_linearly () =
  let n = 4_000 in
  List.iter
    (fun (what, model, root, alphabet_size) ->
      let before = Gc.minor_words () in
      let env = Pepa.Env.of_model model in
      let warnings = Pepa.Env.warnings env in
      let words = Gc.minor_words () -. before in
      Alcotest.(check (list string)) (what ^ ": no warnings") [] warnings;
      Alcotest.(check int) (what ^ ": head alphabet") alphabet_size
        (SS.cardinal (Pepa.Env.alphabet env (S.Var root)));
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.0f words for %d definitions within 1,000 per definition" what
           words n)
        true
        (words <= 1000.0 *. float_of_int n))
    [ ("chain", chain n, "P00000", n); ("aliases", aliases n, "M00000", 1) ]

let suite =
  [
    Alcotest.test_case "4,000-definition chains allocate linearly" `Quick
      test_chains_allocate_linearly;
    QCheck_alcotest.to_alcotest prop_generated_terms;
    QCheck_alcotest.to_alcotest prop_random_graphs;
  ]
