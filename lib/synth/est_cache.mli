(** Concurrent sharded LRU cache for point evaluations of the synthesis
    cost function.

    The annealer revisits sizing points — rejected moves that clamp back
    onto a hypercube face, and late polishing stages whose step size
    shrinks below the cache quantum — and each evaluation runs a full
    relaxed estimation (template instantiation, KCL penalty, AWE).  The
    cache keys on the sizing vector quantized to a fixed grid
    ([Float.round (x /. quantum)] per coordinate), so points closer than
    half a quantum share an entry; with the default quantum on unit-cube
    coordinates the aliasing error is far below the cost model's
    resolution.

    The table is striped into independently-locked shards (the shard is
    a deterministic hash of the quantized key), so annealing chains
    running on separate domains share one cache with little lock
    contention.  Per-shard hit/miss/eviction counts feed
    [est_cache.shard<i>.*] {!Ape_obs} counters alongside the
    [est_cache.*] aggregates.

    {b Determinism.}  [find_or_add] hands the evaluation callback the
    key's {e representative point} ([key * quantum] per coordinate),
    never the caller's raw point.  The stored value is therefore a pure
    function of the key: under concurrent insertion every racing chain
    computes the bit-identical value, and an eviction merely forces
    recomputation of that same value — cache hits, shard interleaving
    and [--jobs] cannot leak into synthesis results.

    Non-finite coordinates quantize to reserved keys (NaN, +inf and
    -inf each to their own), and the representative maps them back to
    the same non-finite value, so pathological points are memoised
    deterministically instead of hitting [int_of_float]'s undefined
    behaviour. *)

type t

val default_quantum : float
(** 1e-2 — see EXPERIMENTS.md for the measurement behind the choice. *)

val create : ?quantum:float -> ?shards:int -> capacity:int -> unit -> t
(** [quantum] defaults to {!default_quantum} (coordinates live in the
    unit cube); [shards] defaults to 8; [capacity] is the total across
    shards (each shard holds [capacity/shards], rounded up).  Raises
    [Invalid_argument] when any of the three is non-positive. *)

val find_or_add : t -> float array -> (float array -> float) -> float
(** [find_or_add t point f] returns the cached value for [point]'s
    quantized key, or runs [f] on the key's representative point,
    stores the result (evicting that shard's least-recently-used entry
    when over capacity) and returns it.  Thread-safe; [f] runs outside
    any lock. *)

val hits : t -> int
val lookups : t -> int
val evictions : t -> int

val hit_rate : t -> float
(** [hits / lookups], 0 before the first lookup. *)

val length : t -> int
(** Entries currently stored (≤ capacity). *)

val capacity : t -> int
val shards : t -> int
val quantum : t -> float
val clear : t -> unit
