(** CTMC aggregation by ordinary lumpability.

    Partition refinement over flat src/dst/rate/label transition
    columns ({!Lts.columns} expands a state space's stream into them):
    starting from the partition induced by each state's per-label total
    exit rate (the action signature), blocks are split until every state
    of a block has the same total rate, per label, into every other
    block.  The fixpoint is ordinarily lumpable, so the quotient
    chain's steady-state distribution aggregates the original one
    exactly: [pi_hat(C) = sum_{s in C} pi(s)].

    Because the initial partition fixes the per-label exit-rate vector
    on every block, uniform-over-class disaggregation of the lumped
    solution reproduces every flux-table measure (throughput per
    action/label) of the original chain exactly — see the
    "Aggregation" section of DESIGN.md for the argument.  Per-state
    probabilities from uniform disaggregation are exact only when the
    classes are symmetry orbits; for any other per-state observable
    the caller must pass a [respect] key under which the observable is
    class-constant, which is how the PEPA and PEPA-net state spaces
    keep their local-state and marking measures exact. *)

(** How much aggregation to apply between state-space construction and
    the steady-state solve.  [Symmetry] canonicalises
    permutation-equivalent states of replicated components at
    exploration time; [Lumping] quotients the assembled CTMC by
    ordinary lumpability; [Both] applies the two in sequence (symmetry
    first, then lumping over whatever structure remains). *)
type mode = No_agg | Symmetry | Lumping | Both

val mode_of_string : string -> mode option
(** Recognises ["none"], ["symmetry"], ["lump"] and ["both"]. *)

val mode_to_string : mode -> string
val symmetry_enabled : mode -> bool
val lumping_enabled : mode -> bool

type t = {
  n_states : int;
  n_classes : int;
  class_of : int array;      (** state -> class, classes numbered by
                                 smallest member state *)
  class_size : int array;
  representative : int array;  (** smallest member state per class *)
}

val identity : int -> t
(** The discrete partition: every state its own class. *)

val refine :
  ?tol:float ->
  ?respect:int array ->
  n:int ->
  src:int array ->
  dst:int array ->
  rate:float array ->
  label:int array ->
  unit ->
  t
(** Coarsest partition, refining the per-label exit-rate signature,
    such that for every pair of blocks [B], [D] and every label, all
    states of [B] have the same total rate into [D] (splitter-queue
    partition refinement).  [respect] (one key per state) further
    constrains the initial partition: states with different keys are
    never merged.  Callers use it to keep every class homogeneous in
    the per-state observables they will read off the disaggregated
    solution — ordinary lumpability alone only guarantees exact
    {e class sums}, not exact per-state probabilities, so without a
    respect key the uniform disaggregation of the quotient solution is
    trustworthy only for flux measures.  Rates within [tol] relative
    distance (default [1e-9]) are treated as equal, absorbing float
    summation noise.  Self-loops ([src = dst]) are ignored by the
    refinement itself but kept in the initial exit signature: they
    carry label flux even though they never affect the generator.
    Emits a ["ctmc.lump"] tracing span with classes before/after and
    records the [ctmc.lump.classes_before/after/seconds] gauges when
    telemetry is on ([classes_before] is the initial signature-class
    count in both). *)

val quotient_ctmc :
  t -> src:int array -> dst:int array -> rate:float array -> Ctmc.t
(** The lumped chain: transitions of each class representative with
    destinations mapped to classes (parallel transitions summed by
    {!Ctmc.of_arrays}, class-internal transitions dropped as self
    loops). *)

val aggregate : t -> float array -> float array
(** Per-class sums of a per-state vector: the exact lumped image of a
    distribution. *)

val disaggregate : t -> float array -> float array
(** Uniform-over-class expansion of a per-class distribution back to
    states: [pi(s) = pi_hat(class_of s) / class_size].  Per-state
    entries are exact when classes are symmetry orbits (states of an
    orbit have equal probability); for any other class only quantities
    constant on the class — class sums, per-label fluxes, and whatever
    the caller's [respect] key held fixed — are exact. *)
