(** Deterministic design-grid sampling for calibration.

    [run] sweeps the opamp synthesis template's spec space — gain, UGF,
    tail current, load capacitance drawn log-uniformly, plus
    buffer/topology variants — running the estimator {e and} the
    simulator at every point and pairing their attribute values into
    {!Fit.sample}s tagged with the point's {!Card.region}.

    Determinism: point [i] draws from stream [i] of a single
    {!Ape_util.Rng.split_n}, and points are evaluated with
    {!Ape_util.Pool.map}, so the sample list is bit-identical for any
    [jobs] value — the property behind CI's jobs-1-vs-3 card diff.
    Points where the template is infeasible or the simulator fails to
    converge are skipped (and counted): a calibration grid deliberately
    walks past the feasibility edge. *)

type range = float * float

type spec = {
  points : int;
  seed : int;
  jobs : int;
  av : range;
  ugf : range;
  ibias : range;
  cl : range;
  slew : bool;  (** also run the transient step (slow) *)
}

val default : spec
(** 16 points, seed 1, sequential, ranges bracketing Table 3's specs,
    no transient. *)

exception Parse_error of { pos : Ape_util.Sexpr.pos option; msg : string }

val describe_error : pos:Ape_util.Sexpr.pos option -> msg:string -> string
(** ["grid spec: 1:15: points must be non-negative, got -2"]. *)

val parse_spec : string -> spec
(** Parse a [(grid (points 32) (ugf 800k 14meg) ...)] spec through
    {!Ape_util.Sexpr}'s field layer: every field optional over
    {!default}, none repeated, no unknown one; numbers finite, with
    SPICE suffixes.  [(points N)]
    and [(jobs N)] follow [--points] and [--jobs]: non-negative, and a
    jobs count of 0 = {!Ape_util.Pool.recommended_jobs}.  Raises
    {!Parse_error} with positions. *)

val load_spec : string -> spec

type result = {
  samples : Fit.sample list;  (** in point order *)
  evaluated : int;
  skipped : int;
}

val run : Ape_process.Process.t -> spec -> result
