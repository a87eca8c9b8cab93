type level = Quiet | Info | Debug

let current_level = ref Quiet

(* The collection flag is read from every domain (daemon workers bump
   counters, the sampler polls gauges), so it is an atomic: a plain ref
   written by one domain could stay invisible to another domain
   indefinitely under the OCaml memory model. *)
let collecting = Atomic.make false
let interval = ref 8192

let set_level l = current_level := l
let level () = !current_level

let rank = function Quiet -> 0 | Info -> 1 | Debug -> 2
let at_least l = rank !current_level >= rank l

let level_of_string = function
  | "quiet" -> Some Quiet
  | "info" -> Some Info
  | "debug" -> Some Debug
  | _ -> None

let level_to_string = function Quiet -> "quiet" | Info -> "info" | Debug -> "debug"

let enable () = Atomic.set collecting true
let disable () = Atomic.set collecting false
let enabled () = Atomic.get collecting

let set_progress_interval n = interval := max 1 n
let progress_interval () = !interval
