(* Replica-group detection and state canonicalisation.

   A group is a set of interchangeable replicas, each a run of vector
   positions; canonicalisation sorts the replicas' sub-vectors in place.
   PEPA replicas come from [detect].  A cooperation chain
   [m1 <S> m2 <S> ... <S> mk] (the compiler emits exactly this
   right-nested shape for [P[k]], with S empty) is associative and
   commutative over the one set S, so members with the same structural
   fingerprint may be permuted freely.  Each maximal set of identical
   members forms a group; the group records every member's leaves in
   traversal order, and canonicalisation sorts the members' leaf-state
   sub-vectors in place. *)

module String_set = Syntax.String_set

type t = {
  groups : int array array array;  (* groups.(g).(r) = leaf indices of replica r; innermost first *)
  singles : int array array;
      (* singles.(g) = each replica's one leaf when group g's replicas are
         single leaves, as every P[n] and net cell group's are; [||] else *)
  orbits : int array array;  (* orbits.(leaf) = symmetric leaves, incl. self *)
}

let trivial = { groups = [||]; singles = [||]; orbits = [||] }
let is_trivial t = Array.length t.groups = 0
let n_groups t = Array.length t.groups
let groups t = Array.map (Array.map Array.copy) t.groups

let of_groups ~n_leaves groups =
  if Array.length groups = 0 then trivial
  else begin
    (* A leaf's orbit under the generated permutation group is its
       connected component across the groups' positional orbits (nested
       replication chains them), computed by union-find. *)
    let parent = Array.init n_leaves Fun.id in
    let rec find i = if parent.(i) = i then i else (parent.(i) <- find parent.(i); parent.(i)) in
    let union a b = parent.(find a) <- find b in
    Array.iter
      (fun replicas ->
        for pos = 0 to Array.length replicas.(0) - 1 do
          let first = replicas.(0).(pos) in
          Array.iter (fun leaves -> union leaves.(pos) first) replicas
        done)
      groups;
    let members = Hashtbl.create 16 in
    for leaf = n_leaves - 1 downto 0 do
      let root = find leaf in
      Hashtbl.replace members root
        (leaf :: Option.value ~default:[] (Hashtbl.find_opt members root))
    done;
    let orbits =
      Array.init n_leaves (fun leaf -> Array.of_list (Hashtbl.find members (find leaf)))
    in
    let singles =
      Array.map
        (fun replicas ->
          if Array.for_all (fun leaves -> Array.length leaves = 1) replicas then
            Array.map (fun leaves -> leaves.(0)) replicas
          else [||])
        groups
    in
    { groups; singles; orbits }
  end

let set_signature set = String.concat "," (String_set.elements set)

(* Structural fingerprint: equal strings iff the subtrees are
   isomorphic (same shape, same cooperation/hiding sets, same
   component at every leaf position). *)
let rec signature = function
  | Compile.Leaf { comp; _ } -> Printf.sprintf "L%d" comp
  | Compile.Coop (a, set, b) ->
      Printf.sprintf "C(%s|%s|%s)" (signature a) (set_signature set) (signature b)
  | Compile.Hide (a, set) -> Printf.sprintf "H(%s|%s)" (signature a) (set_signature set)

let rec leaves_of acc = function
  | Compile.Leaf { leaf; _ } -> leaf :: acc
  | Compile.Coop (a, _, b) -> leaves_of (leaves_of acc a) b
  | Compile.Hide (a, _) -> leaves_of acc a

let leaves_in_order s = Array.of_list (List.rev (leaves_of [] s))

let detect compiled =
  let groups = ref [] in
  (* Flatten a maximal cooperation chain over one set into its member
     subtrees (none of which is itself a Coop over the same set). *)
  let rec flatten set s acc =
    match s with
    | Compile.Coop (a, s2, b) when String_set.equal s2 set ->
        flatten set b (flatten set a acc)
    | member -> member :: acc
  in
  let rec walk s =
    match s with
    | Compile.Leaf _ -> ()
    | Compile.Hide (inner, _) -> walk inner
    | Compile.Coop (_, set, _) ->
        let members = List.rev (flatten set s []) in
        (* Innermost first: groups inside a member are canonicalised
           before the outer sort compares member sub-vectors. *)
        List.iter walk members;
        let by_sig = Hashtbl.create 8 in
        List.iter
          (fun member ->
            let key = signature member in
            let existing = Option.value ~default:[] (Hashtbl.find_opt by_sig key) in
            Hashtbl.replace by_sig key (member :: existing))
          members;
        Hashtbl.iter
          (fun _key rev_members ->
            match rev_members with
            | [] | [ _ ] -> ()
            | _ ->
                groups := Array.of_list (List.rev_map leaves_in_order rev_members) :: !groups)
          by_sig
  in
  walk compiled.Compile.structure;
  of_groups ~n_leaves:(Compile.n_leaves compiled) (Array.of_list (List.rev !groups))

(* Lexicographic order of two replicas' leaf-state sub-vectors. *)
let compare_sub (vec : int array) (a : int array) (b : int array) =
  let n = Array.length a in
  let i = ref 0 in
  while !i < n && vec.(a.(!i)) = vec.(b.(!i)) do
    incr i
  done;
  if !i = n then 0 else compare vec.(a.(!i)) vec.(b.(!i))

let swap_sub (vec : int array) (a : int array) (b : int array) =
  for p = 0 to Array.length a - 1 do
    let x = vec.(a.(p)) in
    vec.(a.(p)) <- vec.(b.(p));
    vec.(b.(p)) <- x
  done

(* Insertion sort of each group's replicas, swapping sub-vectors in
   place through the fixed leaf layout; a group of single leaves sorts
   their values directly, shifting instead of swapping.  A successor
   differs from its canonical source in a few leaves, so the sort is
   linear in practice; it allocates nothing and keeps no scratch, so
   domains may share [t].  A swap or shift only ever resolves a strict
   inversion, so the vector changed exactly when some group moved. *)
let canonicalise t vec =
  let changed = ref false in
  for g = 0 to Array.length t.groups - 1 do
    let leaves = t.singles.(g) in
    if Array.length leaves > 0 then
      for r = 1 to Array.length leaves - 1 do
        let x = vec.(leaves.(r)) in
        let j = ref r in
        while !j > 0 && vec.(leaves.(!j - 1)) > x do
          vec.(leaves.(!j)) <- vec.(leaves.(!j - 1));
          changed := true;
          decr j
        done;
        vec.(leaves.(!j)) <- x
      done
    else begin
      let replicas = t.groups.(g) in
      for r = 1 to Array.length replicas - 1 do
        let j = ref r in
        while !j > 0 && compare_sub vec replicas.(!j - 1) replicas.(!j) > 0 do
          swap_sub vec replicas.(!j - 1) replicas.(!j);
          changed := true;
          decr j
        done
      done
    end
  done;
  !changed

let orbit t leaf =
  if is_trivial t || leaf >= Array.length t.orbits then [| leaf |] else t.orbits.(leaf)
