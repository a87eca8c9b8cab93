type t = {
  cards : int array;   (* field cardinalities, for range checks *)
  widths : int array;  (* bits per field *)
  size : int;          (* bytes per packed key *)
}

let bits_for card =
  (* Smallest w with 2^w >= card; 0 for singleton fields. *)
  let w = ref 0 in
  while 1 lsl !w < card do
    incr w
  done;
  !w

let of_cardinalities cards =
  Array.iter
    (fun c ->
      if c <= 0 then invalid_arg "Statekey.of_cardinalities: non-positive cardinality";
      if c > 1 lsl 55 then invalid_arg "Statekey.of_cardinalities: cardinality above 2^55")
    cards;
  let widths = Array.map bits_for cards in
  let total_bits = Array.fold_left ( + ) 0 widths in
  { cards = Array.copy cards; widths; size = (total_bits + 7) / 8 }

let n_fields t = Array.length t.cards

(* Fields are laid out little-endian in bit order: field [i]'s low bit
   follows field [i-1]'s high bit.  Both directions stream through one
   bit buffer, moving whole bytes between it and the key; a field is at
   most 55 bits wide, so the buffer's live bits (fewer than 8 + 55) fit
   an OCaml int. *)

let pack_into t v buf off =
  if Array.length v <> Array.length t.cards then
    invalid_arg "Statekey.pack_into: vector length mismatch";
  let acc = ref 0 and bits = ref 0 and byte = ref off in
  for i = 0 to Array.length v - 1 do
    let x = v.(i) in
    if x < 0 || x >= t.cards.(i) then
      invalid_arg (Printf.sprintf "Statekey.pack_into: field %d value %d out of range" i x);
    acc := !acc lor (x lsl !bits);
    bits := !bits + t.widths.(i);
    while !bits >= 8 do
      Bytes.unsafe_set buf !byte (Char.unsafe_chr (!acc land 0xff));
      acc := !acc lsr 8;
      bits := !bits - 8;
      incr byte
    done
  done;
  if !bits > 0 then Bytes.unsafe_set buf !byte (Char.unsafe_chr !acc)

let pack t v =
  let buf = Bytes.create t.size in
  pack_into t v buf 0;
  buf

let unpack_into t buf off v =
  if Array.length v <> Array.length t.cards then
    invalid_arg "Statekey.unpack_into: vector length mismatch";
  let acc = ref 0 and bits = ref 0 and byte = ref off in
  for i = 0 to Array.length v - 1 do
    let w = t.widths.(i) in
    while !bits < w do
      acc := !acc lor (Char.code (Bytes.unsafe_get buf !byte) lsl !bits);
      bits := !bits + 8;
      incr byte
    done;
    v.(i) <- !acc land ((1 lsl w) - 1);
    acc := !acc lsr w;
    bits := !bits - w
  done

let unpack t buf =
  let v = Array.make (Array.length t.cards) 0 in
  unpack_into t buf 0 v;
  v

let hash b =
  let h = ref 0x811c9dc5 in
  for i = 0 to Bytes.length b - 1 do
    h := (!h lxor Char.code (Bytes.unsafe_get b i)) * 16777619 land max_int
  done;
  !h

(* ------------------------------------------------------------------ *)
(* The store                                                           *)
(* ------------------------------------------------------------------ *)

(* Key [i] lives at byte offset [i * size] of one growable arena.  The
   intern table is open-addressing with linear probing: [slots] holds a
   key's index + 1 (0 = empty) and [hashes] that key's FNV-1a hash,
   computed once, so probing and resizing compare integers and never
   rehash a key.  A sealed store has dropped its table. *)
type store = {
  codec : t;
  mutable arena : Bytes.t;
  mutable length : int;
  mutable slots : int array;
  mutable hashes : int array;
  mutable collisions : int;
  scratch : Bytes.t;  (* the candidate key, packed before probing *)
}

let store codec =
  {
    codec;
    arena = Bytes.create (1024 * max codec.size 1);
    length = 0;
    slots = Array.make 4096 0;
    hashes = Array.make 4096 0;
    collisions = 0;
    scratch = Bytes.create codec.size;
  }

let length s = s.length

let get_into s i v =
  if i < 0 || i >= s.length then invalid_arg "Statekey.get_into: index out of range";
  unpack_into s.codec s.arena (i * s.codec.size) v

let get s i =
  let v = Array.make (n_fields s.codec) 0 in
  get_into s i v;
  v

let grow_table s =
  let capacity = 2 * Array.length s.slots in
  let slots = Array.make capacity 0 and hashes = Array.make capacity 0 in
  let mask = capacity - 1 in
  Array.iteri
    (fun k slot ->
      if slot <> 0 then begin
        let h = s.hashes.(k) in
        let pos = ref (h land mask) in
        while slots.(!pos) <> 0 do
          pos := (!pos + 1) land mask
        done;
        slots.(!pos) <- slot;
        hashes.(!pos) <- h
      end)
    s.slots;
  s.slots <- slots;
  s.hashes <- hashes

(* Does arena entry [i] equal the scratch key? *)
let matches s i =
  let size = s.codec.size in
  let off = i * size in
  let k = ref 0 in
  while !k < size && Bytes.unsafe_get s.arena (off + !k) = Bytes.unsafe_get s.scratch !k do
    incr k
  done;
  !k = size

let intern s v =
  if Array.length s.slots = 0 then invalid_arg "Statekey.intern: sealed store";
  pack_into s.codec v s.scratch 0;
  let h = hash s.scratch in
  let mask = Array.length s.slots - 1 in
  let pos = ref (h land mask) in
  let result = ref (-1) in
  while !result < 0 do
    let slot = s.slots.(!pos) in
    if slot = 0 then begin
      let i = s.length and size = s.codec.size in
      if (i + 1) * size > Bytes.length s.arena then begin
        let bigger = Bytes.create (2 * Bytes.length s.arena) in
        Bytes.blit s.arena 0 bigger 0 (i * size);
        s.arena <- bigger
      end;
      Bytes.blit s.scratch 0 s.arena (i * size) size;
      s.length <- i + 1;
      s.slots.(!pos) <- i + 1;
      s.hashes.(!pos) <- h;
      if 4 * s.length > 3 * Array.length s.slots then grow_table s;
      result := i
    end
    else if s.hashes.(!pos) = h && matches s (slot - 1) then result := slot - 1
    else begin
      s.collisions <- s.collisions + 1;
      pos := (!pos + 1) land mask
    end
  done;
  !result

(* Keep exactly the keys; the table is only needed while interning. *)
let seal s =
  s.arena <- Bytes.sub s.arena 0 (s.length * s.codec.size);
  s.slots <- [||];
  s.hashes <- [||]

(* ------------------------------------------------------------------ *)
(* The explorer                                                        *)
(* ------------------------------------------------------------------ *)

(* The exploration metrics of both state spaces. *)
let states_explored = Obs.Metrics.counter "states_explored"
let transitions_emitted = Obs.Metrics.counter "transitions_emitted"
let intern_collisions = Obs.Metrics.counter "intern_collisions"
let canonical_hits = Obs.Metrics.counter "statespace.canonical_hits"
let frontier_states = Obs.Metrics.gauge "statespace.frontier_states"
let packed_key_bytes = Obs.Metrics.gauge "statespace.packed_key_bytes"
let packed_arena_bytes = Obs.Metrics.gauge "statespace.packed_arena_bytes"

let explore codec ~span ~stage ~noun ~symmetry ~max_states ~full ~stream ~initial successors =
  let obs_on = Obs.Config.enabled () in
  let progress_every = Obs.Config.progress_interval () in
  let use_sym = not (Symmetry.is_trivial symmetry) in
  let hits = ref 0 in
  let s = store codec in
  let vec = Array.make (n_fields codec) 0 in
  (* The successor's vector is the caller's: canonicalise a copy. *)
  let visit next =
    let key =
      if use_sym then begin
        Array.blit next 0 vec 0 (Array.length vec);
        if Symmetry.canonicalise symmetry vec then incr hits;
        vec
      end
      else next
    in
    let fresh = s.length in
    let i = intern s key in
    if i = fresh && i >= max_states then raise full;
    i
  in
  (* Breadth-first numbering is discovery order, so the work queue is a
     cursor into the store: state [src] is decoded from its key when
     its turn comes, and nothing per state is kept beside the arena. *)
  let src = ref 0 in
  let current = Array.make (n_fields codec) 0 in
  ignore (visit initial);
  while !src < s.length do
    if obs_on then begin
      Obs.Metrics.set frontier_states (float_of_int (s.length - !src));
      if !src > 0 && !src mod progress_every = 0 then
        Obs.Log.progress ~stage ~count:!src
          ~detail:
            (Printf.sprintf "%d discovered, %d transitions" s.length (Markov.Lts.added stream))
    end;
    get_into s !src current;
    successors current ~src:!src ~visit;
    incr src
  done;
  seal s;
  let n = s.length in
  let lts = Markov.Lts.finish stream ~n_states:n in
  let count = Markov.Lts.n_transitions lts in
  if obs_on then begin
    Obs.Metrics.add states_explored n;
    Obs.Metrics.add transitions_emitted count;
    Obs.Metrics.add intern_collisions s.collisions;
    Obs.Metrics.set packed_key_bytes (float_of_int codec.size);
    Obs.Metrics.set packed_arena_bytes (float_of_int (Bytes.length s.arena));
    Obs.Span.add_int span noun n;
    Obs.Span.add_int span "transitions" count;
    Obs.Span.add_int span "intern_collisions" s.collisions;
    Obs.Span.add_int span "packed_key_bytes" codec.size;
    if use_sym then begin
      Obs.Metrics.add canonical_hits !hits;
      Obs.Span.add_int span "symmetry_groups" (Symmetry.n_groups symmetry);
      Obs.Span.add_int span "canonical_hits" !hits
    end
  end;
  (s, lts)
