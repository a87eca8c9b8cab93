(* Domain-parallel execution on the stdlib only.  See par.mli for the
   determinism contract; the load-bearing invariants are marked
   inline. *)

let max_domains = 64

let resolve jobs =
  if jobs < 0 then invalid_arg "Par.resolve: jobs must be >= 0"
  else if jobs = 0 then min max_domains (max 1 (Domain.recommended_domain_count ()))
  else min max_domains jobs

let default_jobs = ref 1
let set_jobs n = default_jobs := resolve n
let jobs () = !default_jobs
let recommended () = Domain.recommended_domain_count ()

module Pool = struct
  type t = {
    size : int;
    mutex : Mutex.t;
    work_ready : Condition.t;
    work_done : Condition.t;
    mutable job : (int -> unit) option;
    mutable epoch : int;
    mutable outstanding : int;
    mutable failure : exn option;
    mutable stop : bool;
    mutable domains : unit Domain.t list;
  }

  (* Workers block on [work_ready] until the epoch moves, run the
     current job, then decrement [outstanding] under the mutex.  The
     final decrement wakes the coordinator; that unlock/lock pair is
     the happens-before edge that publishes worker writes. *)
  let worker t index =
    let rec loop last_epoch =
      Mutex.lock t.mutex;
      while (not t.stop) && t.epoch = last_epoch do
        Condition.wait t.work_ready t.mutex
      done;
      if t.stop then Mutex.unlock t.mutex
      else begin
        let epoch = t.epoch in
        let job = match t.job with Some f -> f | None -> assert false in
        Mutex.unlock t.mutex;
        let failure = (try job index; None with exn -> Some exn) in
        Mutex.lock t.mutex;
        (match failure with
        | Some _ when t.failure = None -> t.failure <- failure
        | _ -> ());
        t.outstanding <- t.outstanding - 1;
        if t.outstanding = 0 then Condition.broadcast t.work_done;
        Mutex.unlock t.mutex;
        loop epoch
      end
    in
    loop 0

  let create size =
    (* [pool] hands out no pool of one: every pool has workers. *)
    if size < 2 then invalid_arg "Par.Pool.create: size must be >= 2";
    let t =
      {
        size;
        mutex = Mutex.create ();
        work_ready = Condition.create ();
        work_done = Condition.create ();
        job = None;
        epoch = 0;
        outstanding = 0;
        failure = None;
        stop = false;
        domains = [];
      }
    in
    t.domains <-
      List.init (size - 1) (fun i -> Domain.spawn (fun () -> worker t (i + 1)));
    t

  let size t = t.size

  let run t f =
    Mutex.lock t.mutex;
    t.job <- Some f;
    t.failure <- None;
    t.epoch <- t.epoch + 1;
    t.outstanding <- t.size - 1;
    Condition.broadcast t.work_ready;
    Mutex.unlock t.mutex;
    let caller_failure = (try f 0; None with exn -> Some exn) in
    Mutex.lock t.mutex;
    while t.outstanding > 0 do
      Condition.wait t.work_done t.mutex
    done;
    t.job <- None;
    let worker_failure = t.failure in
    t.failure <- None;
    Mutex.unlock t.mutex;
    match (caller_failure, worker_failure) with
    | Some exn, _ | None, Some exn -> raise exn
    | None, None -> ()

  let shutdown t =
    Mutex.lock t.mutex;
    t.stop <- true;
    Condition.broadcast t.work_ready;
    Mutex.unlock t.mutex;
    List.iter Domain.join t.domains;
    t.domains <- []
end

(* Pools are cached per size: spawning domains costs milliseconds, and
   a process analysing many models reuses the same few sizes. *)
let pools : (int, Pool.t) Hashtbl.t = Hashtbl.create 4
let cleanup_registered = ref false

let shutdown_pools () =
  Hashtbl.iter (fun _ p -> Pool.shutdown p) pools;
  Hashtbl.reset pools

let pool ?jobs () =
  let n = match jobs with Some j -> resolve j | None -> !default_jobs in
  if n <= 1 then None
  else
    match Hashtbl.find_opt pools n with
    | Some p -> Some p
    | None ->
        if not !cleanup_registered then begin
          cleanup_registered := true;
          at_exit shutdown_pools
        end;
        let p = Pool.create n in
        Hashtbl.add pools n p;
        Some p

let default_chunk ~workers n = max 1 ((n + (4 * workers) - 1) / (4 * workers))

let parallel_for p ?chunk ~lo ~hi f =
  let n = hi - lo in
  if n > 0 then begin
    let workers = Pool.size p in
    let chunk =
      match chunk with Some c -> max 1 c | None -> default_chunk ~workers n
    in
    if n <= chunk then f lo hi
    else begin
      let next = Atomic.make lo in
      Pool.run p (fun _ ->
          let continue = ref true in
          while !continue do
            let start = Atomic.fetch_and_add next chunk in
            if start >= hi then continue := false
            else f start (min hi (start + chunk))
          done)
    end
  end

let parallel_chunks p ?chunk ~lo ~hi f =
  let n = hi - lo in
  if n <= 0 then 0
  else begin
    let workers = Pool.size p in
    let chunk =
      match chunk with Some c -> max 1 c | None -> default_chunk ~workers n
    in
    let n_chunks = (n + chunk - 1) / chunk in
    (* Every chunk ordinal runs exactly once, so callers may index
       per-chunk scratch space by ordinal. *)
    if n_chunks = 1 then f ~chunk:0 lo hi
    else begin
      let next = Atomic.make 0 in
      Pool.run p (fun _ ->
          let continue = ref true in
          while !continue do
            let c = Atomic.fetch_and_add next 1 in
            if c >= n_chunks then continue := false
            else begin
              let start = lo + (c * chunk) in
              f ~chunk:c start (min hi (start + chunk))
            end
          done)
    end;
    n_chunks
  end

let sum_floats p ~lo ~hi f =
  let n = hi - lo in
  if n <= 0 then 0.0
  else begin
    let workers = Pool.size p in
    let chunk = default_chunk ~workers n in
    let n_chunks = (n + chunk - 1) / chunk in
    if n_chunks = 1 then f lo hi
    else begin
      let partials = Array.make n_chunks 0.0 in
      ignore
        (parallel_chunks p ~chunk ~lo ~hi (fun ~chunk:c start stop ->
             partials.(c) <- f start stop));
      (* Partials combine in chunk order: the sum is a function of the
         chunk grid, not of which worker ran which chunk. *)
      Array.fold_left ( +. ) 0.0 partials
    end
  end

module Explore = struct
  exception Limit

  type 's result = {
    states : 's array;
    shard_states : int array;
    levels : int;
  }

  (* Growable array; [data] beyond [len] holds stale values.  Grown
     lazily from the first pushed element so no dummy is needed. *)
  module Buf = struct
    type 'a t = { mutable data : 'a array; mutable len : int }

    let create () = { data = [||]; len = 0 }

    let push b x =
      let cap = Array.length b.data in
      if b.len = cap then begin
        let bigger = Array.make (max 64 (2 * cap)) x in
        Array.blit b.data 0 bigger 0 b.len;
        b.data <- bigger
      end;
      b.data.(b.len) <- x;
      b.len <- b.len + 1

    let clear b = b.len <- 0
  end

  (* Open-addressing intern table owned by one shard.  Slot values:
     0 = empty, [idx + 1] = interned global state [idx],
     [-(c + 1)] = candidate [c] discovered this level. *)
  type 's shard = {
    mutable cap : int;  (* power of two *)
    mutable slots : int array;
    mutable hashes : int array;
    mutable occupied : int;
    cand_state : 's Buf.t;
    cand_hash : int Buf.t;
    mutable cand_index : int array;  (* candidate -> global index, -1 unset *)
  }

  (* Per-frontier-chunk expansion buffers.  [dst] codes: [>= 0] an
     already-interned state, [-1] unresolved (phase 2 rewrites it),
     [-(c + 2)] candidate [c] of the shard owning [hash]. *)
  type ('s, 'p) cbuf = {
    b_src : int Buf.t;
    b_dst : int Buf.t;
    b_hash : int Buf.t;
    b_state : 's Buf.t;
    b_payload : 'p Buf.t;
  }

  let explore ~pool:p ~hash ~equal ~expand ~emit ?(max_states = max_int)
      ?progress initial =
    let shards_n = Pool.size p in
    let positive h = h land max_int in
    let owner h = h mod shards_n in
    let states = ref (Array.make 1024 initial) in
    let n_states = ref 0 in
    let shards =
      Array.init shards_n (fun _ ->
          {
            cap = 1024;
            slots = Array.make 1024 0;
            hashes = Array.make 1024 0;
            occupied = 0;
            cand_state = Buf.create ();
            cand_hash = Buf.create ();
            cand_index = [||];
          })
    in
    (* Read-only probe, safe from any domain while no shard mutates:
       returns the raw slot value, 0 on miss. *)
    let probe states_arr sh h s =
      let mask = sh.cap - 1 in
      let pos = ref (h land mask) in
      let result = ref 0 in
      let searching = ref true in
      while !searching do
        let v = sh.slots.(!pos) in
        if v = 0 then searching := false
        else begin
          if sh.hashes.(!pos) = h then begin
            let stored =
              if v > 0 then states_arr.(v - 1) else sh.cand_state.Buf.data.(-v - 1)
            in
            if equal stored s then begin
              result := v;
              searching := false
            end
          end;
          if !searching then pos := (!pos + 1) land mask
        end
      done;
      !result
    in
    let rehash sh =
      let old_slots = sh.slots and old_hashes = sh.hashes in
      sh.cap <- sh.cap * 2;
      sh.slots <- Array.make sh.cap 0;
      sh.hashes <- Array.make sh.cap 0;
      let mask = sh.cap - 1 in
      Array.iteri
        (fun k v ->
          if v <> 0 then begin
            let h = old_hashes.(k) in
            let pos = ref (h land mask) in
            while sh.slots.(!pos) <> 0 do
              pos := (!pos + 1) land mask
            done;
            sh.slots.(!pos) <- v;
            sh.hashes.(!pos) <- h
          end)
        old_slots
    in
    let insert sh h v =
      if 4 * (sh.occupied + 1) > 3 * sh.cap then rehash sh;
      let mask = sh.cap - 1 in
      let pos = ref (h land mask) in
      while sh.slots.(!pos) <> 0 do
        pos := (!pos + 1) land mask
      done;
      sh.slots.(!pos) <- v;
      sh.hashes.(!pos) <- h;
      sh.occupied <- sh.occupied + 1
    in
    let add_state s =
      if !n_states >= max_states then raise Limit;
      let i = !n_states in
      if i >= Array.length !states then begin
        let bigger = Array.make (2 * Array.length !states) s in
        Array.blit !states 0 bigger 0 i;
        states := bigger
      end;
      !states.(i) <- s;
      incr n_states;
      i
    in
    let h0 = positive (hash initial) in
    ignore (add_state initial);
    insert shards.(owner h0) h0 1;
    (* Chunk buffers are reused across levels; the grid never exceeds
       [4 * shards_n] chunks by construction of [default_chunk]. *)
    let cbufs =
      Array.init (4 * shards_n) (fun _ ->
          {
            b_src = Buf.create ();
            b_dst = Buf.create ();
            b_hash = Buf.create ();
            b_state = Buf.create ();
            b_payload = Buf.create ();
          })
    in
    let chunk_exn = Array.make (4 * shards_n) None in
    let levels = ref 0 in
    let frontier_lo = ref 0 in
    while !frontier_lo < !n_states do
      let lo = !frontier_lo and hi = !n_states in
      incr levels;
      let states_arr = !states in
      let chunk = default_chunk ~workers:shards_n (hi - lo) in
      let n_chunks = (hi - lo + chunk - 1) / chunk in
      Array.fill chunk_exn 0 n_chunks None;
      (* Phase 1: expand frontier chunks in parallel.  Dedup tables are
         only probed read-only; misses are recorded as unresolved. *)
      ignore
        (parallel_chunks p ~chunk ~lo ~hi (fun ~chunk:ci start stop ->
             let cb = cbufs.(ci) in
             Buf.clear cb.b_src;
             Buf.clear cb.b_dst;
             Buf.clear cb.b_hash;
             Buf.clear cb.b_state;
             Buf.clear cb.b_payload;
             try
               for src = start to stop - 1 do
                 List.iter
                   (fun (dst_state, payload) ->
                     let h = positive (hash dst_state) in
                     let v = probe states_arr shards.(owner h) h dst_state in
                     Buf.push cb.b_src src;
                     Buf.push cb.b_dst (if v > 0 then v - 1 else -1);
                     Buf.push cb.b_hash h;
                     Buf.push cb.b_state dst_state;
                     Buf.push cb.b_payload payload)
                   (expand states_arr.(src))
               done
             with exn -> chunk_exn.(ci) <- Some exn));
      (* Re-raise the earliest failure: chunk order is frontier order,
         so this matches the sequential builder's first error. *)
      for ci = 0 to n_chunks - 1 do
        match chunk_exn.(ci) with Some exn -> raise exn | None -> ()
      done;
      (* Phase 2: each worker interns the unresolved entries owned by
         its shard, scanning every chunk in stream order so candidate
         ids within a shard follow first-occurrence order. *)
      Pool.run p (fun w ->
          let sh = shards.(w) in
          for ci = 0 to n_chunks - 1 do
            let cb = cbufs.(ci) in
            for k = 0 to cb.b_src.Buf.len - 1 do
              if cb.b_dst.Buf.data.(k) = -1 then begin
                let h = cb.b_hash.Buf.data.(k) in
                if owner h = w then begin
                  let s = cb.b_state.Buf.data.(k) in
                  let v = probe states_arr sh h s in
                  if v > 0 then cb.b_dst.Buf.data.(k) <- v - 1
                  else if v < 0 then cb.b_dst.Buf.data.(k) <- v - 1 (* -(c+1) -> -(c+2) *)
                  else begin
                    let c = sh.cand_state.Buf.len in
                    Buf.push sh.cand_state s;
                    Buf.push sh.cand_hash h;
                    insert sh h (-(c + 1));
                    cb.b_dst.Buf.data.(k) <- -(c + 2)
                  end
                end
              end
            done
          done;
          sh.cand_index <- Array.make (max 1 sh.cand_state.Buf.len) (-1));
      (* Phase 3 (sequential): walk the full transition stream in
         order; the first reference to a candidate is by construction
         its first occurrence, so numbering candidates lazily here
         reproduces sequential first-occurrence numbering exactly.
         [Limit] propagates to the caller, which aborts the build. *)
      for ci = 0 to n_chunks - 1 do
        let cb = cbufs.(ci) in
        for k = 0 to cb.b_src.Buf.len - 1 do
          let d = cb.b_dst.Buf.data.(k) in
          let dst =
            if d >= 0 then d
            else begin
              let h = cb.b_hash.Buf.data.(k) in
              let sh = shards.(owner h) in
              let c = -d - 2 in
              if sh.cand_index.(c) >= 0 then sh.cand_index.(c)
              else begin
                let idx = add_state sh.cand_state.Buf.data.(c) in
                sh.cand_index.(c) <- idx;
                idx
              end
            end
          in
          emit ~src:cb.b_src.Buf.data.(k) ~dst cb.b_payload.Buf.data.(k)
        done
      done;
      (* Phase 4: patch candidate slots to their global indices and
         reset the per-level buffers, one worker per shard. *)
      Pool.run p (fun w ->
          let sh = shards.(w) in
          for c = 0 to sh.cand_state.Buf.len - 1 do
            let h = sh.cand_hash.Buf.data.(c) in
            let mask = sh.cap - 1 in
            let pos = ref (h land mask) in
            while sh.slots.(!pos) <> -(c + 1) do
              pos := (!pos + 1) land mask
            done;
            sh.slots.(!pos) <- sh.cand_index.(c) + 1
          done;
          Buf.clear sh.cand_state;
          Buf.clear sh.cand_hash;
          sh.cand_index <- [||]);
      (match progress with
      | Some f -> f ~states:!n_states ~level:!levels
      | None -> ());
      frontier_lo := hi
    done;
    {
      states = Array.sub !states 0 !n_states;
      shard_states = Array.map (fun sh -> sh.occupied) shards;
      levels = !levels;
    }
end
