(** Deterministic parallel execution over OCaml 5 domains.

    Two layers:

    {2 Persistent pool}

    [create ~workers] spawns [workers] long-lived domains that drain a
    shared job queue; [submit] enqueues a thunk and returns a join
    handle, [await] blocks until it finishes and returns its value — or
    re-raises the exception the thunk died with, so a failing worker
    task surfaces at the join instead of hanging the caller.  One pool
    can serve many submission rounds (the multi-chain annealer reuses
    one pool across every cooling stage), amortising domain spawns.

    [shutdown] closes the pool: no new submissions are accepted, queued
    work is drained (or completed with {!Cancelled} when
    [~cancel_pending:true]) and every worker domain is joined.  Worker
    domains flush their {!Ape_obs} sinks into the global accumulator as
    they exit, so joined pools aggregate every recorded metric.
    [with_pool] brackets a pool's lifetime and cancels outstanding work
    if the body raises.

    A pool created with [workers = 0] runs every submitted thunk inline
    on the calling domain — [await] can never block forever.

    {2 One-shot map}

    [map ~jobs n f] computes [|f 0; ...; f (n-1)|], splitting the index
    range into [jobs] fixed contiguous chunks over a temporary pool (the
    calling domain works too).  Because the partition is a pure function
    of [(n, jobs)] and [f] is applied to every index exactly once, the
    result array — and hence any order-respecting aggregation of it — is
    identical for every [jobs] value, provided [f i] itself depends only
    on [i] (give each sample its own {!Rng.split_n} stream, or per-call
    workspaces for solver tasks).  [jobs <= 1] runs sequentially with no
    domain spawned.  An exception raised by [f] is re-raised by [map]
    after every chunk has been joined.

    This pool serves the Monte Carlo runner ([Ape_mc.Run]), the
    calibration grid ([Ape_calib.Grid]), the multi-chain synthesis
    engine ([Ape_synth.Anneal.optimize ~chains]) and the batch job
    service ([Ape_serve.Scheduler]). *)

exception Cancelled
(** Raised by {!await} for tasks discarded by
    [shutdown ~cancel_pending:true] (or an exceptional {!with_pool}
    exit) before a worker picked them up. *)

type t
(** A persistent worker pool. *)

type 'a task
(** The join handle for one submitted thunk. *)

val create : workers:int -> t
(** Spawn [max 0 workers] long-lived worker domains.  [workers = 0]
    degenerates to inline execution at {!submit} time. *)

val size : t -> int
(** Number of worker domains (0 for an inline pool). *)

val submit : t -> (unit -> 'a) -> 'a task
(** Enqueue a thunk.  Raises [Invalid_argument] if the pool has been
    shut down.  The thunk's exceptions are captured and re-raised by
    {!await}, never by the worker. *)

val await : 'a task -> 'a
(** Block until the task finishes; return its value or re-raise its
    exception ({!Cancelled} if the task was discarded). *)

val shutdown : ?cancel_pending:bool -> t -> unit
(** Close the pool and join every worker.  Queued-but-unstarted jobs
    are run to completion by default, or completed with {!Cancelled}
    when [cancel_pending] is true.  Idempotent: only the first call
    cancels and joins; any later call (a daemon's signal handler racing
    its normal exit path) returns immediately without touching the
    already-joined domains. *)

val with_pool : workers:int -> (t -> 'a) -> 'a
(** [with_pool ~workers f] brackets [create]/[shutdown] around [f].  If
    [f] raises, outstanding queued work is cancelled before the
    exception propagates. *)

val map : jobs:int -> int -> (int -> 'a) -> 'a array

val recommended_jobs : unit -> int
(** [Domain.recommended_domain_count ()]: the hardware-appropriate cap
    for [~jobs] / [~workers]. *)
