(* The successor generator.  The cooperation tree is compiled once into
   nodes numbered in post-order, so a subtree is the contiguous range
   [first.(k) .. k] and one forward loop visits children before their
   parent, exactly as the recursive semantics did.  Every state's moves
   are generated into one reused buffer: a node's moves form a
   contiguous range, its children's ranges are adjacent, and a
   cooperation compacts its children's solo moves in place and appends
   the synchronised products behind them.  Rates are (passive, value)
   pairs evaluated with Rate's float operations in Rate's order, so
   every transition rate is bitwise the one the list semantics gave. *)

exception Passive_transition of { state : string; action : string }
exception Mixed_rates of { state : string; action : string }

type node =
  | Leaf of { leaf : int; comp : int }
  | Coop of { left : int; right : int; shared : bool array; sync : int array }
      (** [sync]: the shared action ids some component can perform, in
          decreasing name order *)
  | Hide of { child : int; hidden : bool array }
  | Interleave of int array
      (** a right-nested chain of [<>] cooperations, children left to
          right *)

(* One component's local moves: local state [s] owns entries
   [start.(s)] to [start.(s + 1) - 1]. *)
type table = {
  start : int array;
  act : int array;
  passive : bool array;
  value : float array;
  target : int array;
}

(* A growable move buffer; move [i] sets the leaves of delta entries
   [d0.(i)] to [d1.(i) - 1]. *)
type moves = {
  mutable n : int;
  mutable act : int array;
  mutable passive : bool array;
  mutable rate : float array;
  mutable d0 : int array;
  mutable d1 : int array;
}

type deltas = { mutable used : int; mutable leaf : int array; mutable local : int array }

type t = {
  compiled : Compile.t;
  labels : Action.t array;  (* named actions by name, then tau *)
  tau : int;
  tables : table array;  (* per component *)
  nodes : node array;  (* post-order; the root is last *)
  first : int array;  (* first node of each node's subtree *)
  lo : int array;  (* where each node's moves start in [main] *)
  app_passive : bool array;  (* per node: the apparent rate being evaluated *)
  app_value : float array;
  main : moves;
  side : moves;  (* one cooperation's shared moves, while it combines *)
  deltas : deltas;
  next : int array;  (* the successor vector, rewritten around each emit *)
}

let moves_buffer () =
  {
    n = 0;
    act = Array.make 64 0;
    passive = Array.make 64 false;
    rate = Array.make 64 0.0;
    d0 = Array.make 64 0;
    d1 = Array.make 64 0;
  }

let grow_moves m =
  let extend a fill =
    let b = Array.make (2 * Array.length a) fill in
    Array.blit a 0 b 0 m.n;
    b
  in
  m.act <- extend m.act 0;
  m.passive <- extend m.passive false;
  m.rate <- extend m.rate 0.0;
  m.d0 <- extend m.d0 0;
  m.d1 <- extend m.d1 0

let[@inline] push m act passive rate d0 d1 =
  if m.n = Array.length m.act then grow_moves m;
  let i = m.n in
  m.act.(i) <- act;
  m.passive.(i) <- passive;
  m.rate.(i) <- rate;
  m.d0.(i) <- d0;
  m.d1.(i) <- d1;
  m.n <- i + 1

(* Move [i] of [src] into slot [j] of [dst]. *)
let set dst j src i =
  dst.act.(j) <- src.act.(i);
  dst.passive.(j) <- src.passive.(i);
  dst.rate.(j) <- src.rate.(i);
  dst.d0.(j) <- src.d0.(i);
  dst.d1.(j) <- src.d1.(i)

let copy_move src i dst =
  if dst.n = Array.length dst.act then grow_moves dst;
  set dst dst.n src i;
  dst.n <- dst.n + 1

let push_delta d leaf local =
  if d.used = Array.length d.leaf then begin
    let extend a =
      let b = Array.make (2 * Array.length a) 0 in
      Array.blit a 0 b 0 d.used;
      b
    in
    d.leaf <- extend d.leaf;
    d.local <- extend d.local
  end;
  d.leaf.(d.used) <- leaf;
  d.local.(d.used) <- local;
  d.used <- d.used + 1

(* ------------------------------------------------------------------ *)
(* Compilation                                                         *)
(* ------------------------------------------------------------------ *)

let compile (compiled : Compile.t) =
  let names = ref Syntax.String_set.empty in
  Array.iter
    (fun (component : Compile.component) ->
      Array.iter
        (Array.iter (fun (action, _, _) ->
             Option.iter (fun n -> names := Syntax.String_set.add n !names) (Action.name action)))
        component.Compile.local_moves)
    compiled.Compile.components;
  let names = Array.of_list (Syntax.String_set.elements !names) in
  let tau = Array.length names in
  let ids = Hashtbl.create (2 * tau + 1) in
  Array.iteri (fun id n -> Hashtbl.replace ids n id) names;
  let id_of = function Action.Act n -> Hashtbl.find ids n | Action.Tau -> tau in
  let table (component : Compile.component) =
    let local = component.Compile.local_moves in
    let start = Array.make (Array.length local + 1) 0 in
    Array.iteri (fun s moves -> start.(s + 1) <- start.(s) + Array.length moves) local;
    let all = Array.concat (Array.to_list local) in
    {
      start;
      act = Array.map (fun (action, _, _) -> id_of action) all;
      passive = Array.map (fun (_, rate, _) -> Rate.is_passive rate) all;
      value = Array.map (fun (_, (Rate.Active v | Rate.Passive v), _) -> v) all;
      target = Array.map (fun (_, _, target) -> target) all;
    }
  in
  let mask set = Array.init (tau + 1) (fun id -> id < tau && Syntax.String_set.mem names.(id) set) in
  let nodes = ref [] and firsts = ref [] and count = ref 0 in
  let add first node =
    nodes := node :: !nodes;
    firsts := first :: !firsts;
    incr count;
    !count - 1
  in
  let rec build s =
    let first = !count in
    match s with
    | Compile.Leaf { leaf; comp } -> add first (Leaf { leaf; comp })
    | Compile.Hide (inner, set) ->
        let child = build inner in
        add first (Hide { child; hidden = mask set })
    | Compile.Coop (_, set, _) when Syntax.String_set.is_empty set ->
        let rec chain s acc =
          match s with
          | Compile.Coop (l, set, r) when Syntax.String_set.is_empty set -> chain r (build l :: acc)
          | last -> List.rev (build last :: acc)
        in
        add first (Interleave (Array.of_list (chain s [])))
    | Compile.Coop (l, set, r) ->
        let left = build l in
        let right = build r in
        let shared = mask set in
        let sync = List.filter (fun id -> shared.(id)) (List.init tau (fun i -> tau - 1 - i)) in
        add first (Coop { left; right; shared; sync = Array.of_list sync })
  in
  ignore (build compiled.Compile.structure);
  let n_nodes = !count in
  {
    compiled;
    labels = Array.append (Array.map (fun n -> Action.Act n) names) [| Action.Tau |];
    tau;
    tables = Array.map table compiled.Compile.components;
    nodes = Array.of_list (List.rev !nodes);
    first = Array.of_list (List.rev !firsts);
    lo = Array.make n_nodes 0;
    app_passive = Array.make n_nodes false;
    app_value = Array.make n_nodes 0.0;
    main = moves_buffer ();
    side = moves_buffer ();
    deltas = { used = 0; leaf = Array.make 64 0; local = Array.make 64 0 };
    next = Array.make (Compile.n_leaves compiled) 0;
  }

let labels t = t.labels

(* ------------------------------------------------------------------ *)
(* Apparent rates                                                      *)
(* ------------------------------------------------------------------ *)

let mixed t vec action =
  raise
    (Mixed_rates
       { state = Compile.state_label t.compiled vec; action = Action.to_string t.labels.(action) })

(* [Rate.sum] of (ap, av) and (bp, bv) into node [k]'s apparent rate:
   [Active 0.0] is the identity, on the left first. *)
let[@inline] sum_at t vec action k ap av bp bv =
  if (not ap) && av = 0.0 then begin
    t.app_passive.(k) <- bp;
    t.app_value.(k) <- bv
  end
  else if (not bp) && bv = 0.0 then begin
    t.app_passive.(k) <- ap;
    t.app_value.(k) <- av
  end
  else if ap = bp then begin
    t.app_passive.(k) <- ap;
    t.app_value.(k) <- av +. bv
  end
  else mixed t vec action

(* [Rate.min_rate]: a passive rate exceeds every active one.  Apparent
   rates are finite and never negative or NaN, where [Float.min x y] is
   [if y > x then x else y]. *)
let[@inline] min_at t k ap av bp bv =
  if ap = bp then begin
    t.app_passive.(k) <- ap;
    t.app_value.(k) <- (if bv > av then av else bv)
  end
  else begin
    t.app_passive.(k) <- false;
    t.app_value.(k) <- (if ap then bv else av)
  end

(* The apparent rate of [action] in every node of [root]'s subtree, as
   the recursive definition computes it: a leaf sums its enabled
   instances in move order, hiding yields zero, a cooperation takes the
   minimum over a shared action and the sum otherwise, and an
   interleaving sums its children right-nested, as the chain it
   flattens did. *)
let apparent t vec action root =
  for k = t.first.(root) to root do
    match t.nodes.(k) with
    | Leaf { leaf; comp } ->
        let tb = t.tables.(comp) and s = vec.(leaf) in
        t.app_passive.(k) <- false;
        t.app_value.(k) <- 0.0;
        for i = tb.start.(s) to tb.start.(s + 1) - 1 do
          if tb.act.(i) = action then
            sum_at t vec action k t.app_passive.(k) t.app_value.(k) tb.passive.(i) tb.value.(i)
        done
    | Hide { child; hidden } ->
        if hidden.(action) then begin
          t.app_passive.(k) <- false;
          t.app_value.(k) <- 0.0
        end
        else begin
          t.app_passive.(k) <- t.app_passive.(child);
          t.app_value.(k) <- t.app_value.(child)
        end
    | Coop { left; right; shared; _ } ->
        let ap = t.app_passive.(left) and av = t.app_value.(left) in
        let bp = t.app_passive.(right) and bv = t.app_value.(right) in
        if shared.(action) then min_at t k ap av bp bv else sum_at t vec action k ap av bp bv
    | Interleave children ->
        let last = children.(Array.length children - 1) in
        t.app_passive.(k) <- t.app_passive.(last);
        t.app_value.(k) <- t.app_value.(last);
        for c = Array.length children - 2 downto 0 do
          let child = children.(c) in
          sum_at t vec action k t.app_passive.(child) t.app_value.(child) t.app_passive.(k)
            t.app_value.(k)
        done
  done

(* ------------------------------------------------------------------ *)
(* Moves                                                               *)
(* ------------------------------------------------------------------ *)

(* [Rate.share]: this instance's probability among its side's. *)
let[@inline] share t vec action ip iv ap av =
  if ip <> ap then mixed t vec action
  else if av > 0.0 then iv /. av
  else invalid_arg "Rate.cooperation: zero apparent rate"

let has side lo hi action =
  let found = ref false and i = ref lo in
  while (not !found) && !i < hi do
    found := side.act.(!i) = action;
    incr i
  done;
  !found

(* A cooperation over [left] and [right], whose moves are adjacent in
   [main]: the left's solo moves, then the right's, then for each
   shared action in decreasing name order every left instance (outer)
   with every right instance (inner) at Hillston's cooperation rate. *)
let combine t vec k ~left ~right ~shared ~sync =
  let m = t.main and side = t.side and d = t.deltas in
  let a = t.lo.(left) and b = t.lo.(right) and c = m.n in
  t.lo.(k) <- a;
  (* Shared moves go aside (their deltas stay put); solo moves close up. *)
  side.n <- 0;
  let w = ref a and split = ref 0 in
  for i = a to c - 1 do
    if i = b then split := side.n;
    if shared.(m.act.(i)) then copy_move m i side
    else begin
      if !w < i then set m !w m i;
      incr w
    end
  done;
  if b = c then split := side.n;
  m.n <- !w;
  let split = !split in
  for s = 0 to Array.length sync - 1 do
    let action = sync.(s) in
    if has side 0 split action && has side split side.n action then begin
      apparent t vec action left;
      apparent t vec action right;
      let p1 = t.app_passive.(left) and v1 = t.app_value.(left) in
      let p2 = t.app_passive.(right) and v2 = t.app_value.(right) in
      min_at t k p1 v1 p2 v2;
      let mp = t.app_passive.(k) and mv = t.app_value.(k) in
      for i = 0 to split - 1 do
        if side.act.(i) = action then begin
          let s1 = share t vec action side.passive.(i) side.rate.(i) p1 v1 in
          for j = split to side.n - 1 do
            if side.act.(j) = action then begin
              let s2 = share t vec action side.passive.(j) side.rate.(j) p2 v2 in
              let d0 = d.used in
              for e = side.d0.(i) to side.d1.(i) - 1 do
                push_delta d d.leaf.(e) d.local.(e)
              done;
              for e = side.d0.(j) to side.d1.(j) - 1 do
                push_delta d d.leaf.(e) d.local.(e)
              done;
              push m action mp (s1 *. s2 *. mv) d0 d.used
            end
          done
        end
      done
    end
  done

(* Fill [main] with the moves of [vec], in the list semantics' order. *)
let expand t vec =
  let m = t.main and d = t.deltas in
  m.n <- 0;
  d.used <- 0;
  for k = 0 to Array.length t.nodes - 1 do
    match t.nodes.(k) with
    | Leaf { leaf; comp } ->
        t.lo.(k) <- m.n;
        let tb = t.tables.(comp) and s = vec.(leaf) in
        for i = tb.start.(s) to tb.start.(s + 1) - 1 do
          push_delta d leaf tb.target.(i);
          push m tb.act.(i) tb.passive.(i) tb.value.(i) (d.used - 1) d.used
        done
    | Hide { child; hidden } ->
        t.lo.(k) <- t.lo.(child);
        for i = t.lo.(child) to m.n - 1 do
          if hidden.(m.act.(i)) then m.act.(i) <- t.tau
        done
    | Interleave children -> t.lo.(k) <- t.lo.(children.(0))
    | Coop { left; right; shared; sync } -> combine t vec k ~left ~right ~shared ~sync
  done

let successors t stream vec ~src ~visit =
  expand t vec;
  let m = t.main and d = t.deltas and next = t.next in
  Array.blit vec 0 next 0 (Array.length next);
  for i = 0 to m.n - 1 do
    if m.passive.(i) then
      raise
        (Passive_transition
           {
             state = Compile.state_label t.compiled vec;
             action = Action.to_string t.labels.(m.act.(i));
           });
    for e = m.d0.(i) to m.d1.(i) - 1 do
      next.(d.leaf.(e)) <- d.local.(e)
    done;
    let dst = visit next in
    Markov.Lts.add_id stream ~src ~dst ~rate:m.rate.(i) m.act.(i);
    for e = m.d0.(i) to m.d1.(i) - 1 do
      let leaf = d.leaf.(e) in
      next.(leaf) <- vec.(leaf)
    done
  done
