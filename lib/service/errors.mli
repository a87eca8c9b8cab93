(** The error → exit-code contract, shared by the one-shot CLIs and
    the daemon protocol.

    Each renderer produces the {e exact} bytes the CLI writes to
    stderr (hint lines included), the exit code it ends with, and the
    one-line status recorded in the run ledger.  The CLI front ends
    print [message] and [exit code]; the daemon ships the same record
    as an {!Protocol.Error_response} and the client replays it — so a
    failure reported through the daemon is byte-identical, code
    included, to the same failure from the one-shot tool. *)

type rendered = {
  code : int;  (** process exit code: 1 model error, 2 analysis failure *)
  message : string;  (** complete stderr text, trailing newline included *)
  status : string;  (** ledger [exit_status] summary *)
}

val model_error_code : int
(** 1 — parse, semantic and pipeline errors. *)

val analysis_failure_code : int
(** 2 — non-convergence and kin, retryable with another method. *)

val model_error : string -> rendered
(** [error: <msg>] with code 1 — parse, semantic and pipeline errors. *)

val did_not_converge :
  method_used:Markov.Steady.method_ -> iterations:int -> residual:float -> rendered
(** The CLI's non-convergence report, with the method-specific hint
    (never suggesting the method that just gave up). *)

val did_not_reach_steady : steps:int -> t:float -> dx_norm:float -> rendered

val step_budget_exhausted :
  steps:int -> t:float -> error_estimate:float -> rendered
(** Distinguishes accuracy-limited from stability-limited exhaustion in
    its hint, as the CLI does. *)

val of_exn : exn -> rendered option
(** Map the analysis exceptions ({!Choreographer.Workbench.Analysis_error},
    {!Choreographer.Pipeline.Pipeline_error},
    {!Choreographer.Query.Query_error}, solver and fluid
    non-convergence) to their rendering; [None] for exceptions outside
    the contract (protocol bugs, I/O), which the daemon reports
    generically as internal failures (code 125).  The CLIs report a
    file they cannot read or write as {!model_error} and let anything
    else escape. *)
