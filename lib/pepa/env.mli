(** Static checking and resolution of a parsed model.

    [of_model] checks the model once and produces an environment in which
    every rate parameter has a value, every process constant is classified
    as sequential or model-level, and the standard PEPA well-formedness
    conditions hold:

    - no duplicate or undefined names (rates and processes separately);
    - rate definitions evaluate to positive finite values, with no cycles
      and no passive rates inside arithmetic;
    - choice and prefix apply only to sequential terms;
    - no recursion through model-level constants (cooperation and hiding
      are static in PEPA: a constant defined through them may not be
      reached from its own body). *)

type t

exception Semantic_error of string

val of_model : Syntax.model -> t

val model : t -> Syntax.model
val system : t -> Syntax.expr

val rate_parameters : t -> (string * float) list
(** Resolved values of all named rate parameters, in definition order. *)

val eval_rate : t -> Syntax.rate_expr -> Rate.t
(** Evaluate a rate expression.  Raises {!Semantic_error} on reference to
    an unknown parameter, a non-positive value, or passive rates combined
    arithmetically. *)

val lookup_process : t -> string -> Syntax.expr
(** Raises {!Semantic_error} on unknown constants. *)

val is_sequential : t -> string -> bool

val process_names : t -> string list

val alphabet : t -> Syntax.expr -> Syntax.String_set.t
(** Named action types performable by an expression: its own prefixes'
    actions plus the alphabets of the constants it references, read from
    the table [of_model] computes in one pass over the definitions'
    reference graph.  [tau] is not included. *)

val warnings : t -> string list
(** Non-fatal observations: cooperation sets mentioning actions outside
    both participants' alphabets, process definitions never referenced
    from the system equation, and the like.  Computed on each call. *)
