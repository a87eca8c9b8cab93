(** Bit-packed state keys, the explored-state store, and the one
    breadth-first explorer both state spaces run.

    A global PEPA state is a vector of small bounded integers (each
    leaf's local-state index); a PEPA-net marking flattens to one too.
    Storing such vectors as boxed [int array]s costs a header plus a
    full word per field — two orders of magnitude more than the
    information content.  A codec built from the per-field
    cardinalities packs each vector into a fixed-width little-endian
    bit string, and a {!store} keeps one such key per explored state in
    one byte arena.

    The packing is a bijection on valid vectors: [unpack] of [pack] is
    the identity, and two vectors pack equal iff they are equal — so
    [Bytes.equal] on keys is exactly vector equality and hashing the
    key bytes (FNV-1a) is a sound intern-table hash.

    {!explore} is the derivation loop of {!Statespace.build} and
    [Pepanet.Net_statespace.build]: each supplies a codec, an initial
    vector, a stream builder and a successor function, and gets back the
    store of its states and their labelled transition stream. *)

type t
(** A codec: field widths and the derived key size.  Immutable and
    shareable across domains. *)

val of_cardinalities : int array -> t
(** [of_cardinalities card] builds a codec for vectors [v] with
    [0 <= v.(i) < card.(i)].  Field [i] occupies [ceil (log2 card.(i))]
    bits; fields of cardinality 1 occupy none.  Raises
    [Invalid_argument] on a cardinality outside [1, 2^55]. *)

val pack : t -> int array -> Bytes.t
(** Pack a vector into a fresh key.  Raises [Invalid_argument] on a
    length mismatch or an out-of-range field. *)

val unpack : t -> Bytes.t -> int array
(** Decode a whole key into a fresh vector. *)

(** {1 The store}

    Distinct vectors numbered [0, 1, ...] in first-occurrence order.
    Their keys sit contiguously in one growable byte arena, key [i] at
    byte offset [i] times the key size, so a million states cost one
    heap block; an open-addressing intern table over the arena stores
    each slot's hash, so probing and resizing never rehash a key. *)

type store

val store : t -> store
(** A fresh, empty store for vectors of the codec. *)

val intern : store -> int array -> int
(** The vector's index: the one it was first given, or [length s] for
    a vector not seen before, which is added.  Raises
    [Invalid_argument] on a store returned by {!explore}. *)

val length : store -> int

val get_into : store -> int -> int array -> unit
(** [get_into s i v] decodes key [i] into the preallocated [v].
    Raises [Invalid_argument] when [i] is not an index of [s]. *)

val get : store -> int -> int array
(** Key [i] decoded into a fresh vector. *)

(** {1 The explorer} *)

val explore :
  t ->
  span:Obs.Span.t ->
  stage:string ->
  noun:string ->
  symmetry:Symmetry.t ->
  max_states:int ->
  full:exn ->
  stream:'l Markov.Lts.builder ->
  initial:int array ->
  (int array -> src:int -> visit:(int array -> int) -> unit) ->
  store * 'l Markov.Lts.t
(** [explore codec ... ~stream ~initial successors] derives every state
    reachable from the vector [initial] breadth-first.
    [successors vec ~src ~visit] expands state [src], decoded into
    [vec]: for each outgoing transition it calls [visit next] on the
    successor's vector and adds the transition from [src] to the index
    [visit] returns to [stream].  [visit] rewrites a copy of [next] to
    its orbit representative by {!Symmetry.canonicalise} unless
    [symmetry] is trivial and interns it, so it neither keeps nor
    changes [next]; states are numbered in first-occurrence order, so
    numbering and transition order depend on the model alone.

    Breadth-first numbering is discovery order, so the store doubles
    as the work queue: state [i] is decoded from its key into [vec]
    when its turn comes (a vector reused for every state, which
    [successors] must copy to keep), and nothing per state is kept
    beside the arena.  Raises [full] when a state beyond the first
    [max_states] is discovered.

    The returned store is sealed (its intern table dropped: the arena
    holds exactly the keys), and the stream finished over its states.
    With telemetry on, the explorer refreshes the
    ["statespace.frontier_states"] gauge per expansion, reports
    progress under [stage], adds to the ["states_explored"],
    ["transitions_emitted"], ["intern_collisions"] (probes past an
    occupied slot) and ["statespace.canonical_hits"] counters, sets the
    ["statespace.packed_key_bytes"] and ["statespace.packed_arena_bytes"]
    gauges, and records [noun] (the state count), ["transitions"],
    ["intern_collisions"], ["packed_key_bytes"] and, under symmetry,
    ["symmetry_groups"] and ["canonical_hits"] on [span]. *)
