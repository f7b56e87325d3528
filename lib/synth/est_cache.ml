(* Concurrent LRU memo table for point evaluations, striped into
   independently-locked shards so annealing chains on separate domains
   share one cache without serialising on a single mutex.  Each shard is the old
   single-threaded structure: hash map from the quantized sizing vector
   to a doubly-linked recency list (most recent at the front), evicting
   from the back once over capacity.

   Determinism contract: the stored value must be a pure function of
   the *key*, not of whichever point happened to insert the cell first
   (two points half a quantum apart share a key; under --jobs > 1 the
   first inserter races).  So [find_or_add] evaluates the callback at
   the key's representative point (key * quantum), never at the caller's
   raw point: any racing inserter computes the bit-identical value, and
   an eviction merely forces recomputation of that same value. *)

let c_hits = Ape_obs.counter "est_cache.hits"
let c_misses = Ape_obs.counter "est_cache.misses"
let c_evictions = Ape_obs.counter "est_cache.evictions"

type node = {
  n_key : int array;
  n_value : float;
  mutable n_prev : node option;  (* toward most-recently-used *)
  mutable n_next : node option;  (* toward least-recently-used *)
}

type shard = {
  s_lock : Mutex.t;
  s_capacity : int;
  s_table : (int array, node) Hashtbl.t;
  mutable s_mru : node option;
  mutable s_lru : node option;
  mutable s_hits : int;
  mutable s_lookups : int;
  mutable s_evictions : int;
  sc_hits : Ape_obs.counter;
  sc_misses : Ape_obs.counter;
  sc_evictions : Ape_obs.counter;
}

type t = { quantum : float; shards : shard array }

let default_quantum = 1e-2

let create ?(quantum = default_quantum) ?(shards = 8) ~capacity () =
  if capacity <= 0 then invalid_arg "Est_cache.create: capacity <= 0";
  if shards <= 0 then invalid_arg "Est_cache.create: shards <= 0";
  if not (quantum > 0.) then invalid_arg "Est_cache.create: quantum <= 0";
  let per_shard = Int.max 1 ((capacity + shards - 1) / shards) in
  {
    quantum;
    shards =
      Array.init shards (fun i ->
          {
            s_lock = Mutex.create ();
            s_capacity = per_shard;
            s_table = Hashtbl.create (2 * per_shard);
            s_mru = None;
            s_lru = None;
            s_hits = 0;
            s_lookups = 0;
            s_evictions = 0;
            sc_hits = Ape_obs.counter (Printf.sprintf "est_cache.shard%d.hits" i);
            sc_misses =
              Ape_obs.counter (Printf.sprintf "est_cache.shard%d.misses" i);
            sc_evictions =
              Ape_obs.counter (Printf.sprintf "est_cache.shard%d.evictions" i);
          });
  }

(* int_of_float is undefined on NaN and on values outside the int
   range, and the annealer's cost can be probed on vectors an upstream
   bug or a user-supplied start point made non-finite.  Map each bad
   class to its own reserved key so distinct pathologies don't alias,
   and clamp huge finite quotients (1e18 < max_int on 64-bit). *)
let quantize_coord quantum x =
  if Float.is_nan x then min_int
  else
    let q = Float.round (x /. quantum) in
    if q >= 1e18 then max_int
    else if q <= -1e18 then min_int + 1
    else int_of_float q

let quantize t point = Array.map (quantize_coord t.quantum) point

(* Inverse of [quantize_coord] onto the cell's representative point:
   reserved keys map back to the non-finite value they stand for, so an
   evaluator sees NaN/inf exactly as it would have from the raw point. *)
let representative_coord quantum k =
  if k = min_int then Float.nan
  else if k = max_int then Float.infinity
  else if k = min_int + 1 then Float.neg_infinity
  else float_of_int k *. quantum

let representative t key = Array.map (representative_coord t.quantum) key

let shard_of_key t key =
  t.shards.((Hashtbl.hash key land max_int) mod Array.length t.shards)

let with_lock m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let unlink s n =
  (match n.n_prev with
  | None -> s.s_mru <- n.n_next
  | Some p -> p.n_next <- n.n_next);
  (match n.n_next with
  | None -> s.s_lru <- n.n_prev
  | Some nx -> nx.n_prev <- n.n_prev);
  n.n_prev <- None;
  n.n_next <- None

let push_front s n =
  n.n_prev <- None;
  n.n_next <- s.s_mru;
  (match s.s_mru with Some m -> m.n_prev <- Some n | None -> s.s_lru <- Some n);
  s.s_mru <- Some n

let insert s key v =
  let n = { n_key = key; n_value = v; n_prev = None; n_next = None } in
  Hashtbl.replace s.s_table key n;
  push_front s n;
  if Hashtbl.length s.s_table > s.s_capacity then
    match s.s_lru with
    | Some victim ->
      s.s_evictions <- s.s_evictions + 1;
      Ape_obs.incr c_evictions;
      Ape_obs.incr s.sc_evictions;
      unlink s victim;
      Hashtbl.remove s.s_table victim.n_key
    | None -> ()

let find_or_add t point f =
  let key = quantize t point in
  let s = shard_of_key t key in
  let cached =
    with_lock s.s_lock (fun () ->
        s.s_lookups <- s.s_lookups + 1;
        match Hashtbl.find_opt s.s_table key with
        | Some n ->
          s.s_hits <- s.s_hits + 1;
          Ape_obs.incr c_hits;
          Ape_obs.incr s.sc_hits;
          unlink s n;
          push_front s n;
          Some n.n_value
        | None ->
          Ape_obs.incr c_misses;
          Ape_obs.incr s.sc_misses;
          None)
  in
  match cached with
  | Some v -> v
  | None ->
    (* Evaluate outside the lock so a slow cost function doesn't stall
       the shard.  A racing inserter computed the same value (pure
       function of the key), so losing the race costs nothing. *)
    let v = f (representative t key) in
    with_lock s.s_lock (fun () ->
        match Hashtbl.find_opt s.s_table key with
        | Some n ->
          unlink s n;
          push_front s n
        | None -> insert s key v);
    v

let fold_shards t f =
  Array.fold_left
    (fun acc s -> with_lock s.s_lock (fun () -> acc + f s))
    0 t.shards

let hits t = fold_shards t (fun s -> s.s_hits)
let lookups t = fold_shards t (fun s -> s.s_lookups)
let evictions t = fold_shards t (fun s -> s.s_evictions)
let length t = fold_shards t (fun s -> Hashtbl.length s.s_table)
let capacity t = Array.length t.shards * t.shards.(0).s_capacity
let shards t = Array.length t.shards
let quantum t = t.quantum

let hit_rate t =
  let lookups = lookups t in
  if lookups = 0 then 0. else float_of_int (hits t) /. float_of_int lookups

let clear t =
  Array.iter
    (fun s ->
      with_lock s.s_lock (fun () ->
          Hashtbl.reset s.s_table;
          s.s_mru <- None;
          s.s_lru <- None;
          s.s_hits <- 0;
          s.s_lookups <- 0;
          s.s_evictions <- 0))
    t.shards
