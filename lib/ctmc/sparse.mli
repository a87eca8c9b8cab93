(** Compressed sparse row (CSR) matrices over [float].

    This is the storage format for CTMC generator matrices.  Every
    construction path ends in {!of_grouped}'s per-row sort and
    duplicate merge, so callers can emit entries in any order. *)

type t = private {
  n_rows : int;
  n_cols : int;
  row_ptr : int array;  (** length [n_rows + 1] *)
  col_index : int array;
  values : float array;
}

val of_grouped :
  drop_diagonal:bool ->
  n_rows:int ->
  n_cols:int ->
  row_start:int array ->
  col:(int -> int) ->
  value:(int -> float) ->
  t
(** Build a matrix from an entry stream already grouped by row: row
    [i]'s entries sit at stream positions [row_start.(i)] to
    [row_start.(i + 1) - 1] and are read on demand through
    [col]/[value] — no coordinate arrays are ever materialised, which
    is the point: the state-space builders feed their compressed
    transition streams straight in.  Within-row order is arbitrary;
    duplicate columns are merged by summation, left to right in stream
    order, and stored zeros are kept.  [drop_diagonal] discards
    entries with [col = row] during the pass — CTMC assembly uses it
    because self-loops never affect a generator.  Raises
    [Invalid_argument] if [row_start] is not a nondecreasing scan
    starting at 0 or a column is out of range. *)

val of_arrays :
  drop_diagonal:bool ->
  n_rows:int ->
  n_cols:int ->
  rows:int array ->
  cols:int array ->
  values:float array ->
  t
(** Build a matrix from parallel coordinate arrays: a stable counting
    sort by row, O(nnz), groups the entries, then {!of_grouped} merges
    each row — so the result is bitwise identical to {!of_grouped} on
    the same entries grouped by row in input order.  The input arrays
    are not modified.  Raises [Invalid_argument] if the arrays differ
    in length or an index is out of range. *)

val of_triplets : n_rows:int -> n_cols:int -> (int * int * float) list -> t
(** Build a matrix from [(row, col, value)] triplets.  Duplicate
    coordinates are summed; resulting zeros are kept (a stored zero is
    harmless and preserves structure).  Raises [Invalid_argument] if an
    index is out of range.  Thin list-accepting wrapper over
    {!of_arrays}. *)

val zero : n_rows:int -> n_cols:int -> t

val nnz : t -> int
(** Number of stored entries. *)

val get : t -> int -> int -> float
(** [get m i j] is entry [(i, j)], zero when not stored.  Logarithmic in
    the row length. *)

val iter_row : t -> int -> (int -> float -> unit) -> unit
(** [iter_row m i f] applies [f col value] to every stored entry of row
    [i], in increasing column order. *)

val fold_row : t -> int -> ('a -> int -> float -> 'a) -> 'a -> 'a

val mul_vec : t -> float array -> float array
(** [mul_vec m x] is the matrix-vector product [m x]. *)

val mul_vec_into : t -> float array -> float array -> unit
(** [mul_vec_into m x y] stores [m x] in [y], allocating nothing; each
    row is one left-to-right dot product.  The workhorse of the
    iterative solvers' residual checks and of the power method's
    sweeps.  Raises [Invalid_argument] on a dimension mismatch. *)

val vec_mul : float array -> t -> float array
(** [vec_mul x m] is the vector-matrix product [x m] (row vector times
    matrix), the natural operation for probability vectors. *)

val transpose : t -> t
(** CSR transpose by counting sort on columns: O(nnz + n), no
    intermediate triplets. *)

val add_diagonal : t -> float array -> t
(** [add_diagonal m d] is the square matrix [m + diag d], streamed row
    by row in one pass: each diagonal entry is spliced into its sorted
    column position and zero entries of [d] are not stored.  The result
    is bitwise identical to rebuilding from triplets.  Raises
    [Invalid_argument] if [m] is not square, [d] has the wrong length,
    or [m] already stores a diagonal entry (the CTMC rate matrix never
    does). *)

val transpose_add_diagonal : t -> float array -> t
(** [transpose_add_diagonal m d] is [transpose (add_diagonal m d)]
    assembled in a single fused counting-sort pass, without
    materialising the intermediate matrix — the construction path for
    transposed CTMC generators, halving peak storage during assembly.
    Preconditions as for {!add_diagonal}; bitwise identical to the
    composed form. *)

val diagonal : t -> float array
(** The main diagonal as a dense vector (zero where not stored). *)

val to_dense : t -> float array array
(** Expand to a dense row-major matrix.  Intended for small systems and
    tests. *)

val row_sums : t -> float array
