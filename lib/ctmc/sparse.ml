type t = {
  n_rows : int;
  n_cols : int;
  row_ptr : int array;
  col_index : int array;
  values : float array;
}

(* The one per-row sort and duplicate merge every CSR assembly goes
   through: each row's entries arrive as a slice of a stream read on
   demand through [col]/[value], so no coordinate arrays are
   materialised.  The row is known while its slice is scanned, which is
   what lets [drop_diagonal] discard self-loops without the caller
   storing a src column just to recognise them. *)
let of_grouped ~drop_diagonal ~n_rows ~n_cols ~row_start ~col ~value =
  if Array.length row_start <> n_rows + 1 then
    invalid_arg "Sparse.of_grouped: row_start has wrong length";
  if row_start.(0) <> 0 then invalid_arg "Sparse.of_grouped: row_start must begin at 0";
  let nnz_in = row_start.(n_rows) in
  let row_ptr = Array.make (n_rows + 1) 0 in
  let col_index = Array.make nnz_in 0 in
  let vals = Array.make nnz_in 0.0 in
  let write = ref 0 in
  for i = 0 to n_rows - 1 do
    let lo = row_start.(i) and hi = row_start.(i + 1) in
    if hi < lo then invalid_arg "Sparse.of_grouped: row_start must be nondecreasing";
    let row_write_start = !write in
    for k = lo to hi - 1 do
      let c = col k in
      if c < 0 || c >= n_cols then
        invalid_arg (Printf.sprintf "Sparse.of_grouped: index (%d, %d) out of range" i c);
      if not (drop_diagonal && c = i) then begin
        let v = value k in
        (* Stable insertion into the slice written so far; a duplicate
           column adds into its slot, so duplicates are summed left to
           right in stream order. *)
        let p = ref !write in
        while !p > row_write_start && col_index.(!p - 1) > c do
          decr p
        done;
        if !p > row_write_start && col_index.(!p - 1) = c then
          vals.(!p - 1) <- vals.(!p - 1) +. v
        else begin
          let len = !write - !p in
          if len > 0 then begin
            Array.blit col_index !p col_index (!p + 1) len;
            Array.blit vals !p vals (!p + 1) len
          end;
          col_index.(!p) <- c;
          vals.(!p) <- v;
          incr write
        end
      end
    done;
    row_ptr.(i + 1) <- !write
  done;
  let count = !write in
  let col_index = if count = nnz_in then col_index else Array.sub col_index 0 count in
  let values = if count = nnz_in then vals else Array.sub vals 0 count in
  { n_rows; n_cols; row_ptr; col_index; values }

(* Array-based CSR assembly: a stable counting sort by row lists the
   input positions of each row's entries, in input order, and
   [of_grouped] does the per-row sort and duplicate merge over those
   slices.  O(nnz + n_rows) time, no intermediate lists; this is
   the construction path of [of_triplets] and [Ctmc.of_arrays]. *)
let of_arrays ~drop_diagonal ~n_rows ~n_cols ~rows ~cols ~values =
  let nnz_in = Array.length rows in
  if Array.length cols <> nnz_in || Array.length values <> nnz_in then
    invalid_arg "Sparse.of_arrays: column arrays of different lengths";
  let row_start = Array.make (n_rows + 1) 0 in
  for k = 0 to nnz_in - 1 do
    let i = rows.(k) and j = cols.(k) in
    if i < 0 || i >= n_rows || j < 0 || j >= n_cols then
      invalid_arg (Printf.sprintf "Sparse.of_arrays: index (%d, %d) out of range" i j);
    row_start.(i + 1) <- row_start.(i + 1) + 1
  done;
  for i = 1 to n_rows do
    row_start.(i) <- row_start.(i) + row_start.(i - 1)
  done;
  let cursor = Array.sub row_start 0 n_rows in
  let order = Array.make nnz_in 0 in
  for k = 0 to nnz_in - 1 do
    let i = rows.(k) in
    order.(cursor.(i)) <- k;
    cursor.(i) <- cursor.(i) + 1
  done;
  of_grouped ~drop_diagonal ~n_rows ~n_cols ~row_start
    ~col:(fun p -> cols.(order.(p)))
    ~value:(fun p -> values.(order.(p)))

let of_triplets ~n_rows ~n_cols triplets =
  let nnz = List.length triplets in
  let rows = Array.make nnz 0 in
  let cols = Array.make nnz 0 in
  let values = Array.make nnz 0.0 in
  List.iteri
    (fun k (i, j, v) ->
      if i < 0 || i >= n_rows || j < 0 || j >= n_cols then
        invalid_arg (Printf.sprintf "Sparse.of_triplets: index (%d, %d) out of range" i j);
      rows.(k) <- i;
      cols.(k) <- j;
      values.(k) <- v)
    triplets;
  of_arrays ~drop_diagonal:false ~n_rows ~n_cols ~rows ~cols ~values

let zero ~n_rows ~n_cols = of_triplets ~n_rows ~n_cols []

let nnz m = Array.length m.values

let get m i j =
  if i < 0 || i >= m.n_rows then invalid_arg "Sparse.get: row out of range";
  let rec bisect lo hi =
    if lo >= hi then 0.0
    else
      let mid = (lo + hi) / 2 in
      let c = m.col_index.(mid) in
      if c = j then m.values.(mid) else if c < j then bisect (mid + 1) hi else bisect lo mid
  in
  bisect m.row_ptr.(i) m.row_ptr.(i + 1)

let iter_row m i f =
  for k = m.row_ptr.(i) to m.row_ptr.(i + 1) - 1 do
    f m.col_index.(k) m.values.(k)
  done

let fold_row m i f init =
  let acc = ref init in
  iter_row m i (fun j v -> acc := f !acc j v);
  !acc

let mul_vec_into m x y =
  if Array.length x <> m.n_cols then invalid_arg "Sparse.mul_vec_into: dimension mismatch";
  if Array.length y <> m.n_rows then invalid_arg "Sparse.mul_vec_into: output size mismatch";
  for i = 0 to m.n_rows - 1 do
    let s = ref 0.0 in
    for k = m.row_ptr.(i) to m.row_ptr.(i + 1) - 1 do
      s := !s +. (m.values.(k) *. x.(m.col_index.(k)))
    done;
    y.(i) <- !s
  done

let mul_vec m x =
  let y = Array.make m.n_rows 0.0 in
  mul_vec_into m x y;
  y

let vec_mul x m =
  if Array.length x <> m.n_rows then invalid_arg "Sparse.vec_mul: dimension mismatch";
  let y = Array.make m.n_cols 0.0 in
  for i = 0 to m.n_rows - 1 do
    let xi = x.(i) in
    if xi <> 0.0 then iter_row m i (fun j v -> y.(j) <- y.(j) +. (xi *. v))
  done;
  y

(* Direct CSR transpose: counting sort by column.  The source stores each
   coordinate once, so the result needs no duplicate merge, and scanning
   rows in order leaves each output row sorted. *)
let transpose m =
  let nnz = Array.length m.values in
  let row_ptr = Array.make (m.n_cols + 1) 0 in
  for k = 0 to nnz - 1 do
    row_ptr.(m.col_index.(k) + 1) <- row_ptr.(m.col_index.(k) + 1) + 1
  done;
  for j = 1 to m.n_cols do
    row_ptr.(j) <- row_ptr.(j) + row_ptr.(j - 1)
  done;
  let cursor = Array.copy row_ptr in
  let col_index = Array.make nnz 0 in
  let values = Array.make nnz 0.0 in
  for i = 0 to m.n_rows - 1 do
    for k = m.row_ptr.(i) to m.row_ptr.(i + 1) - 1 do
      let j = m.col_index.(k) in
      let pos = cursor.(j) in
      col_index.(pos) <- i;
      values.(pos) <- m.values.(k);
      cursor.(j) <- pos + 1
    done
  done;
  { n_rows = m.n_cols; n_cols = m.n_rows; row_ptr; col_index; values }

(* Streamed fused assemblies for the CTMC layer: the generator matrix
   is the off-diagonal rate matrix plus a diagonal, and its transpose
   is what the solvers actually consume.  Building either directly
   from the rates CSR avoids the triplet arrays (3 x nnz words) and
   the intermediate untransposed generator the historical path
   materialised.  Both functions require [m] to store no diagonal
   entries (the rate matrix never does: self-loops are dropped at CTMC
   assembly), which keeps the streamed output bitwise identical to the
   compose-then-sort path it replaces. *)

let check_square_no_diagonal ~context m d =
  if m.n_rows <> m.n_cols then invalid_arg (context ^ ": matrix not square");
  if Array.length d <> m.n_rows then invalid_arg (context ^ ": diagonal length mismatch")

let count_nonzero d =
  let extra = ref 0 in
  Array.iter (fun v -> if v <> 0.0 then incr extra) d;
  !extra

let add_diagonal m d =
  check_square_no_diagonal ~context:"Sparse.add_diagonal" m d;
  let n = m.n_rows in
  let total = Array.length m.values + count_nonzero d in
  let row_ptr = Array.make (n + 1) 0 in
  let col_index = Array.make total 0 in
  let values = Array.make total 0.0 in
  let w = ref 0 in
  for i = 0 to n - 1 do
    row_ptr.(i) <- !w;
    (* Insert the diagonal at its sorted position within the row. *)
    let placed = ref (d.(i) = 0.0) in
    for k = m.row_ptr.(i) to m.row_ptr.(i + 1) - 1 do
      let j = m.col_index.(k) in
      if j = i then invalid_arg "Sparse.add_diagonal: matrix stores a diagonal entry";
      if (not !placed) && j > i then begin
        col_index.(!w) <- i;
        values.(!w) <- d.(i);
        incr w;
        placed := true
      end;
      col_index.(!w) <- j;
      values.(!w) <- m.values.(k);
      incr w
    done;
    if not !placed then begin
      col_index.(!w) <- i;
      values.(!w) <- d.(i);
      incr w
    end
  done;
  row_ptr.(n) <- !w;
  { n_rows = n; n_cols = n; row_ptr; col_index; values }

(* Transpose-with-diagonal: one counting-sort pass over the source
   rows.  Output row [j] collects the diagonal (source [j]) and every
   stored [(i, j)] in ascending source order — exactly the order
   [transpose (add_diagonal m d)] would produce, so the fusion is
   bitwise invisible. *)
let transpose_add_diagonal m d =
  check_square_no_diagonal ~context:"Sparse.transpose_add_diagonal" m d;
  let n = m.n_rows in
  for i = 0 to n - 1 do
    for k = m.row_ptr.(i) to m.row_ptr.(i + 1) - 1 do
      if m.col_index.(k) = i then
        invalid_arg "Sparse.transpose_add_diagonal: matrix stores a diagonal entry"
    done
  done;
  let total = Array.length m.values + count_nonzero d in
  let row_ptr = Array.make (n + 1) 0 in
  for k = 0 to Array.length m.values - 1 do
    row_ptr.(m.col_index.(k) + 1) <- row_ptr.(m.col_index.(k) + 1) + 1
  done;
  for i = 0 to n - 1 do
    if d.(i) <> 0.0 then row_ptr.(i + 1) <- row_ptr.(i + 1) + 1
  done;
  for j = 1 to n do
    row_ptr.(j) <- row_ptr.(j) + row_ptr.(j - 1)
  done;
  let cursor = Array.copy row_ptr in
  let col_index = Array.make total 0 in
  let values = Array.make total 0.0 in
  for i = 0 to n - 1 do
    if d.(i) <> 0.0 then begin
      let pos = cursor.(i) in
      col_index.(pos) <- i;
      values.(pos) <- d.(i);
      cursor.(i) <- pos + 1
    end;
    for k = m.row_ptr.(i) to m.row_ptr.(i + 1) - 1 do
      let j = m.col_index.(k) in
      let pos = cursor.(j) in
      col_index.(pos) <- i;
      values.(pos) <- m.values.(k);
      cursor.(j) <- pos + 1
    done
  done;
  { n_rows = n; n_cols = n; row_ptr; col_index; values }

let diagonal m =
  let n = min m.n_rows m.n_cols in
  Array.init n (fun i -> get m i i)

let to_dense m =
  let dense = Array.make_matrix m.n_rows m.n_cols 0.0 in
  for i = 0 to m.n_rows - 1 do
    iter_row m i (fun j v -> dense.(i).(j) <- dense.(i).(j) +. v)
  done;
  dense

let row_sums m =
  let sums = Array.make m.n_rows 0.0 in
  for i = 0 to m.n_rows - 1 do
    let s = ref 0.0 in
    for k = m.row_ptr.(i) to m.row_ptr.(i + 1) - 1 do
      s := !s +. m.values.(k)
    done;
    sums.(i) <- !s
  done;
  sums
