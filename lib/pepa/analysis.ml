let is_act name action = Action.equal action (Action.Act name)
let deadlock_free space = Markov.Lts.deadlocks (Statespace.lts space) = []

(* Labels are interned only when a transition carries them. *)
let reachable_action space name =
  Array.exists (is_act name) (Markov.Lts.labels (Statespace.lts space))

let states_enabling space name = Markov.Lts.sources (Statespace.lts space) (is_act name)
let states_entered_by space name = Markov.Lts.targets (Statespace.lts space) (is_act name)

let never_follows space ~first ~then_ =
  let entered = Array.make (Statespace.n_states space) false in
  List.iter (fun s -> entered.(s) <- true) (states_entered_by space first);
  not (List.exists (fun s -> entered.(s)) (states_enabling space then_))

let eventually_reaches space ~from name =
  let lts = Statespace.lts space in
  let seen = Array.make (Statespace.n_states space) false in
  let queue = Queue.create () in
  seen.(from) <- true;
  Queue.add from queue;
  let found = ref false in
  while (not !found) && not (Queue.is_empty queue) do
    Markov.Lts.iter_row lts (Queue.pop queue) (fun ~label ~rate:_ ~dst ->
        if is_act name label then found := true;
        if not seen.(dst) then begin
          seen.(dst) <- true;
          Queue.add dst queue
        end)
  done;
  !found

let strongly_connected space = Markov.Ctmc.is_irreducible (Statespace.ctmc space)

let pp_report fmt space =
  Format.fprintf fmt "@[<v>%a@,deadlock-free: %b@,strongly connected: %b@,actions: %s@]"
    Statespace.pp_summary space (deadlock_free space) (strongly_connected space)
    (String.concat ", " (Statespace.action_names space))
