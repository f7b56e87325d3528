(* Memo table for point evaluations: one mutex around one hash table
   from the quantized sizing vector to its value.  A miss that finds the
   table holding [capacity] entries empties it before inserting, so a
   long-lived table keeps following the points its searches visit.

   Determinism contract: the stored value must be a pure function of
   the *key*, not of whichever point happened to insert the cell first
   (two points half a quantum apart share a key; under --jobs > 1 the
   first inserter races).  So [find_or_add] evaluates the callback at
   the key's representative point (key * quantum), never at the caller's
   raw point: any racing inserter computes the bit-identical value, and
   a key dropped by a reset recomputes that same value. *)

let quantum = 1e-2
let capacity = 8192
let c_hits = Ape_obs.counter "est_cache.hits"
let c_misses = Ape_obs.counter "est_cache.misses"

type t = {
  lock : Mutex.t;
  table : (int array, float) Hashtbl.t;
  mutable hits : int;
  mutable lookups : int;
}

let create () =
  { lock = Mutex.create (); table = Hashtbl.create 1024; hits = 0; lookups = 0 }

(* int_of_float is undefined on NaN and on values outside the int
   range, and the annealer's cost can be probed on vectors an upstream
   bug or a user-supplied start point made non-finite.  Map each bad
   class to its own reserved key so distinct pathologies don't alias,
   and clamp huge finite quotients (1e18 < max_int on 64-bit). *)
let quantize_coord x =
  if Float.is_nan x then min_int
  else
    let q = Float.round (x /. quantum) in
    if q >= 1e18 then max_int
    else if q <= -1e18 then min_int + 1
    else int_of_float q

(* Inverse of [quantize_coord] onto the cell's representative point:
   reserved keys map back to the non-finite value they stand for, so an
   evaluator sees NaN/inf exactly as it would have from the raw point. *)
let representative_coord k =
  if k = min_int then Float.nan
  else if k = max_int then Float.infinity
  else if k = min_int + 1 then Float.neg_infinity
  else float_of_int k *. quantum

let find_or_add t point f =
  let key = Array.map quantize_coord point in
  let cached =
    Mutex.protect t.lock (fun () ->
        t.lookups <- t.lookups + 1;
        match Hashtbl.find_opt t.table key with
        | Some _ as hit ->
          t.hits <- t.hits + 1;
          Ape_obs.incr c_hits;
          hit
        | None ->
          Ape_obs.incr c_misses;
          None)
  in
  match cached with
  | Some v -> v
  | None ->
    (* Evaluate outside the lock so a slow cost function doesn't stall
       the other chains.  A racing inserter computed the same value
       (pure function of the key), so [replace] loses nothing. *)
    let v = f (Array.map representative_coord key) in
    Mutex.protect t.lock (fun () ->
        if Hashtbl.length t.table >= capacity then Hashtbl.reset t.table;
        Hashtbl.replace t.table key v);
    v

let hits t = Mutex.protect t.lock (fun () -> t.hits)
let lookups t = Mutex.protect t.lock (fun () -> t.lookups)
