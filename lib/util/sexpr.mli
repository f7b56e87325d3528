(** Positioned S-expression reader.

    Keeps a line/column span on every atom and list, so parsers
    layered on top (serve job files, calibration cards, VASE system
    specs) can answer "entry 17 of your 1000-entry file is malformed
    {e here}" with a precise location in their error records.

    Syntax: atoms are bare tokens or double-quoted strings (with
    backslash escapes for backslash, double quote, [n] and [t] — needed
    for netlist file paths); comments run from [;] to end of line. *)

type pos = { line : int; col : int }  (** 1-based *)

type span = { s_start : pos; s_end : pos }
(** [s_end] is the position one past the last character. *)

type t = Atom of string * span | List of t list * span

exception Error of { pos : pos; msg : string }
(** Structural failure: unbalanced parenthesis, unterminated string. *)

val parse : string -> t list
(** Parse a sequence of top-level S-expressions.  Raises {!Error} on
    structural failure; never on content (any token is a valid atom). *)

val span_of : t -> span

val pp_span : span -> string
(** ["3:14-3:21"] — or ["3:14"] when the span covers one column. *)

val atom : t -> string
(** The atom's text; raises {!Error} at the node's position when the
    node is a list. *)
