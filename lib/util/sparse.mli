(** Sparse matrices in compressed-sparse-column form with a
    symbolic-once/numeric-many LU (KLU-style).

    MNA systems are >90 % zeros and every analysis re-solves the same
    sparsity pattern with different values: AC sweeps per frequency,
    Newton per iteration.  This module splits the work accordingly:

    - a {!pattern} is built once per (netlist, index) pair through
      {!Builder} and never changes;
    - {!Real.factor}/{!Csplit.factor} run a full left-looking
      Gilbert–Peierls LU with partial pivoting over the pattern's
      greedy minimum-degree column ordering (computed once, by
      {!Builder.compile}) — the {e symbolic analysis}: it
      fixes the column order, the row-pivot sequence and the exact
      nonzero structure of L and U;
    - {!Real.refactor}/{!Csplit.refactor} replay only the numeric part
      over the stored structure with the {e same} pivot sequence — no
      graph traversal, no allocation — which is the per-frequency /
      per-iteration hot path.

    A refactorisation with frozen pivots can go numerically bad when the
    values drift far from the ones the pivots were chosen for; it then
    raises {!Unstable} and the caller falls back to a fresh pivoting
    {!Real.factor} (counted under [sparse.refactor_unstable]).

    All factor value storage and workspaces are unboxed
    [Bigarray.Array1] float buffers.  There is {e no} bit-identity
    contract with the test oracle's dense [Matrix] LU: the elimination
    order differs, so results agree only to rounding (the differential
    suite in [test/test_sparse.ml] pins the tolerance). *)

exception Singular
(** The matrix is numerically (or structurally) singular. *)

exception Unstable
(** A fixed-pivot {!Real.refactor}/{!Csplit.refactor} met a pivot too
    small relative to its column — re-run the full pivoting
    factorisation. *)

type pattern
(** Immutable compressed-sparse-column nonzero structure of an n×n
    matrix (rows sorted and unique within each column). *)

module Builder : sig
  type t

  val create : int -> t
  (** [create n] starts an empty n×n pattern ([n >= 0]). *)

  val add : t -> int -> int -> unit
  (** [add b row col] declares a structural nonzero.  Duplicates are
      fine (collapsed by {!compile}).  Raises [Invalid_argument] out of
      range. *)

  val compile : t -> pattern
end

val dim : pattern -> int
val nnz : pattern -> int

val slot : pattern -> row:int -> col:int -> int
(** Index of (row, col) in the value arrays.  Raises [Not_found] when
    the entry is not part of the pattern. *)

val iter : pattern -> (int -> int -> int -> unit) -> unit
(** [iter p f] calls [f slot row col] for every structural entry,
    column-major, rows ascending. *)

(** Real-valued matrices over a shared {!pattern}. *)
module Real : sig
  type t
  (** Per-slot values (unboxed float64 bigarray) over a pattern. *)

  val create : pattern -> t
  (** All-zero values. *)

  val pattern : t -> pattern
  val clear : t -> unit

  val add_slot : t -> int -> float -> unit
  (** Accumulate into one slot — the MNA stamp primitive (slots come
      from {!slot}, or the slots an MNA index recorded). *)

  val get_slot : t -> int -> float
  val set_slot : t -> int -> float -> unit

  type factor
  (** Symbolic structure (column order, pivot sequence, L/U patterns)
      plus current numeric L/U values and workspaces. *)

  val factor : t -> factor
  (** Full pivoting factorisation (the symbolic analysis).  Raises
      {!Singular}. *)

  val refactor : factor -> t -> unit
  (** Numeric-only refactorisation with the stored pivot sequence; the
      values [t] must share the factor's pattern (physical equality).
      Raises {!Unstable} on a degenerate frozen pivot, {!Singular} on an
      exactly vanishing one. *)

  val solve : factor -> float array -> float array
  (** [solve f b] returns [x] with [A x = b] for the last
      (re)factorised values.  [b] is not modified. *)

  val solve_transposed : factor -> float array -> float array
  (** [solve_transposed f b] returns [y] with [Aᵀ y = b] for the last
      (re)factorised values — no transposed factorisation needed. *)

  val clone : factor -> factor
  (** Copy the mutable numeric storage, sharing the immutable symbolic
      skeleton — gives an independent workspace for another domain whose
      {!refactor}/{!solve} arithmetic is identical to the original's. *)

  val lnz : factor -> int
  (** Strictly-lower entries of L (unit diagonal implicit). *)

  val unz : factor -> int
  (** Entries of U including the diagonal. *)
end

(** Split-storage complex matrices over a shared {!pattern} — separate
    re/im float64 bigarrays, with Smith's division and [Float.hypot]
    pivot magnitudes exactly as the stdlib [Complex] module computes
    them. *)
module Csplit : sig
  type t

  val create : pattern -> t
  val pattern : t -> pattern
  val clear : t -> unit
  val add_slot : t -> int -> float -> float -> unit
  val get_slot : t -> int -> float * float
  val set_slot : t -> int -> float -> float -> unit

  val assemble_gc : t -> g:Real.t -> c:Real.t -> omega:float -> unit
  (** The AC hot-path fill: [re(s) <- g(s); im(s) <- omega *. c(s)] over
      every slot.  All three must share one pattern. *)

  type factor

  val factor : t -> factor
  val refactor : factor -> t -> unit
  val solve : factor -> Complex.t array -> Complex.t array

  val solve_transposed : factor -> Complex.t array -> Complex.t array
  (** [solve_transposed f b] returns [y] with [Aᵀ y = b] for the last
      (re)factorised values.  This is the reciprocity workhorse: one
      transposed solve against an output selector [e_out] yields the
      transfer impedance from {e every} injection site to the output at
      once (adjoint noise analysis). *)

  val clone : factor -> factor
  val lnz : factor -> int
  val unz : factor -> int

  (** Frequency panels: the numeric values of K same-pattern systems in
      a slot-major, lane-stride-K structure-of-arrays layout, refactored
      and solved by {e one} traversal of the frozen symbolic structure.
      Lanes never mix arithmetically, so each lane's result is bitwise
      identical to the scalar {!refactor}/{!solve} (or
      {!solve_transposed}) path; a lane whose
      frozen pivot goes degenerate is flagged via {!Panel.ok} instead of
      raising, leaving the other lanes valid. *)
  module Panel : sig
    type vals
    (** K value sets over one shared pattern. *)

    val create : pattern -> k:int -> vals
    (** [create pat ~k] allocates a panel of physical width [k >= 1]. *)

    val width : vals -> int
    (** Physical lane count (the allocation stride). *)

    val lanes : vals -> int
    (** Lanes currently in use (set by {!assemble_gc}/{!use_lanes}). *)

    val use_lanes : vals -> int -> unit
    (** Narrow the active lane count for a final partial panel. *)

    val set_slot : vals -> int -> lane:int -> float -> float -> unit
    (** [set_slot v s ~lane re im] writes one slot of one lane (tests
        and bespoke assemblies; the sweep uses {!assemble_gc}). *)

    val assemble_gc : vals -> g:Real.t -> c:Real.t -> omegas:float array -> unit
    (** Per-lane AC fill: lane [kk] gets [re(s) = g(s)],
        [im(s) = omegas.(kk) *. c(s)]; sets the active lane count to
        [Array.length omegas] (which must be in [1..width]). *)

    type pfactor
    (** Panel numeric storage bound to one scalar {!factor}'s symbolic
        skeleton. *)

    val prepare : factor -> k:int -> pfactor
    (** Allocate panel L/U/workspace storage replaying [factor]'s pivot
        sequence over [k] lanes. *)

    val refactor : pfactor -> vals -> unit
    (** One symbolic traversal, K numeric refactorisations.  Never
        raises on a degenerate lane — the lane is excluded from
        {!ok} and the caller re-solves it through the scalar path. *)

    val solve : pfactor -> Complex.t array -> Complex.t array array
    (** [solve pf b] solves all active lanes against the shared
        right-hand side [b]; element [kk] is lane [kk]'s solution
        (garbage when [ok pf kk] is false). *)

    val solve_transposed : pfactor -> Complex.t array -> Complex.t array array
    (** [solve_transposed pf b] solves [Aᵀ y = b] in every active lane
        against the shared right-hand side [b] — the panel twin of
        {!Csplit.solve_transposed}, each lane bitwise equal to the
        scalar refactor plus transposed solve.  Element [kk] is lane
        [kk]'s solution (garbage when [ok pf kk] is false).  It shares
        the panel's workspace with {!solve}, so the two must not run
        concurrently on one [pfactor]. *)

    val ok : pfactor -> int -> bool
    (** Whether lane [kk] of the last {!refactor} passed every
        pivot-stability test (mirrors the scalar path's
        {!Unstable}/{!Singular} conditions exactly). *)
  end
end

val min_degree : pattern -> int array
(** The greedy minimum-degree column ordering every fresh
    {!Real.factor}/{!Csplit.factor} over the pattern uses (computed on
    the symmetrised pattern; deterministic smallest-index tie-break).
    {!Builder.compile} computes it once, so this returns the pattern's
    own array, the same one on every call: do not mutate it.  Exposed
    for tests. *)
