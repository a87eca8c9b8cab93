(* A labelled transition system as one compressed grouped stream.

   Transitions arrive grouped by source (breadth-first exploration pops
   states by index), so the src column reduces to per-source counts
   recorded as the stream is emitted and scanned into [row_start] at the
   end: it is never stored.  Labels are interned into a small table in
   first-occurrence order, and each transition packs destination and
   label id into one word next to its rate — two words per transition.
   Every measure the state spaces report is read off this stream. *)

type 'l t = {
  n_states : int;
  row_start : int array;  (* CSR over transitions grouped by src; length n_states + 1 *)
  packed : int array;  (* dst in the low bits, interned label id above *)
  rate : float array;
  labels : 'l array;  (* interned label table *)
  mutable chain : Ctmc.t option;
  mutable lump : Lump.t option;
}

(* Destination in the low 48 bits, label id in the bits above:
   comfortably inside a 63-bit int for any explorable space (the
   default cap is 10^6 states) and any realistic label alphabet (the
   14-bit budget is guarded at intern time). *)
let dst_bits = 48
let dst_mask = (1 lsl dst_bits) - 1
let max_labels = 1 lsl (62 - dst_bits)
let dst_of t k = t.packed.(k) land dst_mask
let label_of t k = t.packed.(k) lsr dst_bits

(* Transition buffers doubled on demand, plus the per-source counts and
   the label intern tables: a hash table for labels added by value, and
   for a builder over a pre-interned table the stream id of each table
   index (-1 before its first transition). *)
type 'l builder = {
  mutable b_packed : int array;
  mutable b_rate : float array;
  mutable count : int;
  mutable row_count : int array;
  ids : ('l, int) Hashtbl.t;
  table : 'l array;
  stream_id : int array;
  mutable interned : 'l list;  (* newest first *)
  mutable n_labels : int;
}

let builder ?(labels = [||]) () =
  {
    b_packed = Array.make 4096 0;
    b_rate = Array.make 4096 0.0;
    count = 0;
    row_count = Array.make 4096 0;
    ids = Hashtbl.create 16;
    table = labels;
    stream_id = Array.make (Array.length labels) (-1);
    interned = [];
    n_labels = 0;
  }

exception Too_many_labels of int

let new_label b label =
  if b.n_labels >= max_labels then raise (Too_many_labels max_labels);
  let id = b.n_labels in
  b.interned <- label :: b.interned;
  b.n_labels <- id + 1;
  id

let intern b label =
  match Hashtbl.find_opt b.ids label with
  | Some id -> id
  | None ->
      let id = new_label b label in
      Hashtbl.add b.ids label id;
      id

let[@inline] append b ~src ~dst ~rate id =
  let cap = Array.length b.b_packed in
  if b.count = cap then begin
    let grow_int a = let g = Array.make (2 * cap) 0 in Array.blit a 0 g 0 cap; g in
    let grow_float a = let g = Array.make (2 * cap) 0.0 in Array.blit a 0 g 0 cap; g in
    b.b_packed <- grow_int b.b_packed;
    b.b_rate <- grow_float b.b_rate
  end;
  let rc_cap = Array.length b.row_count in
  if src >= rc_cap then begin
    let grown = ref (2 * rc_cap) in
    while src >= !grown do
      grown := 2 * !grown
    done;
    let g = Array.make !grown 0 in
    Array.blit b.row_count 0 g 0 rc_cap;
    b.row_count <- g
  end;
  b.row_count.(src) <- b.row_count.(src) + 1;
  let k = b.count in
  b.b_packed.(k) <- (id lsl dst_bits) lor dst;
  b.b_rate.(k) <- rate;
  b.count <- k + 1

let add b ~src ~dst ~rate label = append b ~src ~dst ~rate (intern b label)

let add_id b ~src ~dst ~rate key =
  let id =
    match b.stream_id.(key) with
    | -1 ->
        let id = new_label b b.table.(key) in
        b.stream_id.(key) <- id;
        id
    | id -> id
  in
  append b ~src ~dst ~rate id

let added b = b.count

let finish b ~n_states =
  let count = b.count in
  let packed = Array.sub b.b_packed 0 count in
  let rate = Array.sub b.b_rate 0 count in
  (* Sources were emitted in increasing order, so the per-source counts
     scan straight into the row boundaries (states past the counter's
     high-water mark emitted nothing). *)
  let rc = b.row_count in
  let row_start = Array.make (n_states + 1) 0 in
  for i = 0 to n_states - 1 do
    row_start.(i + 1) <- row_start.(i) + (if i < Array.length rc then rc.(i) else 0)
  done;
  {
    n_states;
    row_start;
    packed;
    rate;
    labels = Array.of_list (List.rev b.interned);
    chain = None;
    lump = None;
  }

let n_states t = t.n_states
let n_transitions t = Array.length t.packed
let labels t = t.labels

let iter_row t s f =
  for k = t.row_start.(s) to t.row_start.(s + 1) - 1 do
    f ~label:t.labels.(label_of t k) ~rate:t.rate.(k) ~dst:(dst_of t k)
  done

let iter t f =
  for s = 0 to t.n_states - 1 do
    for k = t.row_start.(s) to t.row_start.(s + 1) - 1 do
      f ~src:s ~label:t.labels.(label_of t k) ~rate:t.rate.(k) ~dst:(dst_of t k)
    done
  done

let deadlocks t =
  let result = ref [] in
  for i = t.n_states - 1 downto 0 do
    if t.row_start.(i) = t.row_start.(i + 1) then result := i :: !result
  done;
  !result

(* Per-label-id steady-state flux in one pass over the stream. *)
let flux t pi =
  let flux = Array.make (Array.length t.labels) 0.0 in
  for s = 0 to t.n_states - 1 do
    for k = t.row_start.(s) to t.row_start.(s + 1) - 1 do
      let id = label_of t k in
      flux.(id) <- flux.(id) +. (pi.(s) *. t.rate.(k))
    done
  done;
  flux

(* The predicate is asked once per interned label, not per transition. *)
let ends t select ~source =
  let hit = Array.map select t.labels in
  let marked = Array.make t.n_states false in
  for s = 0 to t.n_states - 1 do
    for k = t.row_start.(s) to t.row_start.(s + 1) - 1 do
      if hit.(label_of t k) then marked.(if source then s else dst_of t k) <- true
    done
  done;
  let result = ref [] in
  for s = t.n_states - 1 downto 0 do
    if marked.(s) then result := s :: !result
  done;
  !result

let sources t select = ends t select ~source:true
let targets t select = ends t select ~source:false

let ctmc t =
  match t.chain with
  | Some c -> c
  | None ->
      (* The CSR assembles straight from the compressed stream: the
         grouped layout is exactly what [Ctmc.of_grouped] consumes, so
         no src/dst/rate coordinate arrays ever exist. *)
      let c =
        Ctmc.of_grouped ~n:t.n_states ~row_start:t.row_start ~dst:(dst_of t)
          ~rate:(fun k -> t.rate.(k))
      in
      t.chain <- Some c;
      c

type columns = { src : int array; dst : int array; label : int array; rate : float array }

(* The partition refinement speaks flat coordinate columns; expanding
   the compressed stream here is transient and confined to aggregation
   requests, which target far smaller spaces than the raw solves the
   compression exists for. *)
let columns t =
  let m = n_transitions t in
  let src = Array.make m 0 in
  let dst = Array.make m 0 in
  let label = Array.make m 0 in
  for s = 0 to t.n_states - 1 do
    for k = t.row_start.(s) to t.row_start.(s + 1) - 1 do
      src.(k) <- s;
      dst.(k) <- dst_of t k;
      label.(k) <- label_of t k
    done
  done;
  { src; dst; label; rate = t.rate }

(* Labels are the interned ids, so the refinement never merges states
   with different per-label exit signatures and every flux measure is
   exact on the uniformly disaggregated solution; the caller's respect
   key keeps its per-state measures exact as well. *)
let lump_partition t ~respect =
  match t.lump with
  | Some part -> part
  | None ->
      let c = columns t in
      let part =
        Lump.refine ~respect:(respect ()) ~n:t.n_states ~src:c.src ~dst:c.dst ~rate:c.rate
          ~label:c.label ()
      in
      t.lump <- Some part;
      part

let steady_state ?method_ ?options ?partition t =
  match partition with
  | Some part when part.Lump.n_classes < t.n_states ->
      let c = columns t in
      let quotient = Lump.quotient_ctmc part ~src:c.src ~dst:c.dst ~rate:c.rate in
      Lump.disaggregate part (Steady.solve ?method_ ?options quotient)
  | Some _ | None -> Steady.solve ?method_ ?options (ctmc t)

let transient t ~time =
  let initial = Array.make t.n_states 0.0 in
  initial.(0) <- 1.0;
  Transient.probabilities (ctmc t) ~initial ~t:time
