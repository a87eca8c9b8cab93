(** Every solve runs on the domain that asked for it; this library no
    longer runs anything.  [set_jobs] is kept, doing nothing, only
    because [perfbench/] still calls it; it goes when that harness is
    merged with the others. *)

val set_jobs : int -> unit
(** Does nothing.  Its only caller is [perfbench/]. *)
