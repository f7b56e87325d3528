(** Low-overhead observability: metrics registry, hierarchical span
    timing and per-domain sinks for the estimator/synthesis stack.

    The registry is compiled into the hot paths but disabled by default:
    every instrumentation site costs one load and one branch when
    observation is off, and none of the instrumented code paths compute
    differently when it is on — numeric results are bit-identical with
    observation enabled or disabled.

    Three metric families:

    - {e counters}: monotonic integer counts (solver calls, cache hits,
      accepted moves).
    - {e gauges}: last-written float values (annealer temperature,
      cache occupancy).
    - {e histograms}: log-scale latency/value histograms with a
      Welford-style single-pass summary (count/mean/std/min/max/sum),
      the same streaming-moment idiom as [Ape_mc.Stats].

    {b Spans} time hierarchical phases: [span "anneal" f] runs [f] and
    records its wall time under the path formed by the enclosing spans
    of the current domain ("synth/anneal" when nested inside
    [span "synth"]).  Span statistics reuse the histogram summary.

    {b Domains.}  Every domain records into its own sink — no atomics
    or locks on the hot path.  Worker domains spawned by
    [Ape_util.Pool.map] flush their sinks into the global accumulator
    when they are joined, so parallel sweeps and Monte Carlo runs
    aggregate correctly; {!snapshot} flushes the calling domain.
    Metric handles ({!counter} and friends) may be created from any
    domain and are idempotent by name. *)

type counter
type gauge
type histogram

val counter : string -> counter
(** Register (or look up) a monotonic counter.  Raises [Invalid_argument]
    if the name is already registered with a different kind. *)

val gauge : string -> gauge
val histogram : string -> histogram

(** {1 Switching} *)

val enable : unit -> unit
(** Start recording.  Does not clear previously recorded data — call
    {!reset} for a fresh start. *)

val disable : unit -> unit

val reset : unit -> unit
(** Zero the global accumulator and the calling domain's sink. *)

(** {1 Recording} — all no-ops (one load + branch) when disabled. *)

val incr : counter -> unit
val add : counter -> int -> unit
val set : gauge -> float -> unit

val observe : histogram -> float -> unit
(** Record one sample (histograms bucket positive values on a log scale;
    zero/negative samples land in the lowest bucket). *)

val time : histogram -> (unit -> 'a) -> 'a
(** Run the thunk, recording its wall time in seconds (also on
    exception).  When disabled, just runs the thunk. *)

val span : string -> (unit -> 'a) -> 'a
(** Time a hierarchical phase.  The recorded path is the "/"-joined
    chain of enclosing span names in this domain.  Exception-safe; when
    disabled, just runs the thunk. *)

val flush_domain : unit -> unit
(** Merge the calling domain's sink into the global accumulator and
    clear it.  [Ape_util.Pool] calls this as each worker domain
    finishes; user code only needs it for hand-rolled [Domain.spawn]. *)

(** {1 Snapshots and rendering} *)

type summary = {
  s_count : int;
  s_mean : float;
  s_std : float;  (** sample standard deviation; 0 when count < 2 *)
  s_min : float;
  s_max : float;
  s_sum : float;
  s_buckets : (float * int) list;
      (** non-empty log buckets as (inclusive upper bound, count) *)
}

type snapshot = {
  counters : (string * int) list;  (** sorted by name; non-zero only *)
  gauges : (string * float) list;  (** sorted by name; written only *)
  histograms : (string * summary) list;  (** sorted by name *)
  spans : (string * summary) list;  (** sorted by path *)
}

val snapshot : unit -> snapshot
(** Flush the calling domain and read the merged totals.  Does not
    clear anything. *)

val render : snapshot -> string
(** ASCII tables: counters, gauges, histograms and an indented span
    tree. *)

val render_json : snapshot -> string
(** Machine-readable dump, schema ["ape-obs/1"]:
    {v
    { "schema": "ape-obs/1",
      "counters":   [{"name": n, "value": int}],
      "gauges":     [{"name": n, "value": float}],
      "histograms": [{"name": n, "count": int, "mean": f, "std": f,
                      "min": f, "max": f, "sum": f,
                      "buckets": [{"le": f, "count": int}]}],
      "spans":      [{"path": p, "count": int, "total_s": f, "mean_s": f,
                      "std_s": f, "min_s": f, "max_s": f}] }
    v} *)
