(** Memo table for point evaluations of the synthesis cost function.

    The annealer revisits sizing points — rejected moves that clamp back
    onto a hypercube face, and late polishing stages whose step size
    shrinks below the cache quantum — and each evaluation runs a full
    relaxed estimation (template instantiation, KCL penalty, AWE).  The
    cache keys on the sizing vector quantized to a fixed grid
    ([Float.round (x /. 1e-2)] per coordinate), so points closer than
    half a quantum share an entry; on unit-cube coordinates the aliasing
    error is far below the cost model's resolution.

    One mutex guards one hash table, so annealing chains on separate
    domains share one cache.  The table holds at most 8192 entries: a
    miss that finds it full empties it, then stores its own value, so a
    long-lived table (one per fingerprint in [ape serve]) keeps
    following the points its searches visit.  Hits and misses feed the
    [est_cache.hits] and [est_cache.misses] {!Ape_obs} counters.

    {b Determinism.}  [find_or_add] hands the evaluation callback the
    key's {e representative point} ([key * 1e-2] per coordinate), never
    the caller's raw point.  The stored value is therefore a pure
    function of the key: under concurrent insertion every racing chain
    computes the bit-identical value, and a reset merely forces
    recomputation of that same value — cache hits, interleaving and
    [--jobs] cannot leak into synthesis results.

    Non-finite coordinates quantize to reserved keys (NaN, +inf and
    -inf each to their own), and the representative maps them back to
    the same non-finite value, so pathological points are memoised
    deterministically instead of hitting [int_of_float]'s undefined
    behaviour. *)

type t

val create : unit -> t

val find_or_add : t -> float array -> (float array -> float) -> float
(** [find_or_add t point f] returns the cached value for [point]'s
    quantized key, or runs [f] on the key's representative point,
    stores the result (emptying a full table first), and returns it.
    Thread-safe; [f] runs outside the lock. *)

val hits : t -> int
val lookups : t -> int
