(** Positioned S-expression reader, and the one typed layer through
    which every S-expression input (serve job files, calibration grids
    and cards, VASE system specs) reads its fields.

    Keeps a line/column span on every atom and list, so each error
    names its place: "entry 17 of your 1000-entry file is malformed
    {e here}".

    Syntax: atoms are bare tokens or double-quoted strings (with
    backslash escapes for backslash, double quote, [n] and [t] — needed
    for netlist file paths); comments run from [;] to end of line. *)

type pos = { line : int; col : int }  (** 1-based *)

type span = { s_start : pos; s_end : pos }
(** [s_end] is the position one past the last character. *)

type t = Atom of string * span | List of t list * span

exception Error of { span : span; msg : string }
(** Every failure of this module: structural (unbalanced parenthesis,
    unterminated string; a zero-width span at the offending character)
    or a field that does not read (at the field or value it names).
    Each format turns it into its own typed, labelled error. *)

val fail : span -> string -> 'a
(** Raise {!Error}. *)

val parse : string -> t list
(** Parse a sequence of top-level S-expressions.  Raises {!Error} on
    structural failure; never on content (any token is a valid atom). *)

val span_of : t -> span

val pp_span : span -> string
(** ["3:14-3:21"] — or ["3:14"] when the span covers one column. *)

(** {1 Rules: how one token becomes a value}

    A rule reads an atom's text; its error message says what is wrong
    with it.  The command-line flags of [ape] use the same rules, so a
    flag rejects exactly what the same file field rejects. *)

type 'a rule = string -> ('a, string) result

val finite : float rule
(** The number rule ({!Units.parse_number}: SPICE magnitude suffixes)
    and a finite value: ["not a number: 'x'"], ["number must be
    finite"] ([1e400], [inf] and [nan] never read). *)

val positive : float rule
(** {!finite} and > 0: ["number must be > 0"]. *)

val integer : int rule
(** A decimal integer (a count, an order, a bit width): [2.9] is
    ["not an integer: '2.9'"]. *)

val enum : string -> (string * 'a) list -> 'a rule
(** [enum name choices]: one of the choices' names, else ["unknown
    NAME 'x' (expected a|b|c)"]. *)

val satisfying : ('a -> bool) -> ('a -> string) -> 'a rule -> 'a rule
(** [satisfying ok complaint rule]: [rule], then [ok] on its value;
    [complaint v] is the message when [ok v] fails. *)

val atom : t -> string
(** The atom's text; an {!Error} at a list. *)

val read : 'a rule -> t -> 'a
(** [read rule node]: the node's atom through [rule]; an {!Error} at
    the node's span. *)

(** {1 Fields}

    A form's items are [(key value ...)] lists.  A key appears once,
    unless the format lists it as repeatable ([Error] at the second
    occurrence otherwise); every key must be read ({!finish} rejects
    the first one no reader asked for, so a misspelling is an error,
    never a silently ignored field). *)

type field = { key : string; args : t list; span : span }

type fields

val fields : ?repeatable:string list -> ?whole:bool -> span -> t list -> fields
(** [fields form items]: the items of the form spanning [form].  A
    bare atom or a list that does not start with a keyword is an
    {!Error}.  Value errors point at the value, or with [~whole:true]
    at its whole field (serve's job records quote the field). *)

val find : fields -> string -> field option
(** The key's field, if present; marks the key read. *)

val all : fields -> string -> field list
(** Every field of a repeatable key, in order; marks the key read. *)

val require : fields -> string -> field
(** {!find}, or ["missing required field (KEY _)"] at the form. *)

val finish : fields -> unit
(** ["unknown field 'KEY'"] at the first field no reader asked for. *)

val opt : fields -> string -> (t -> 'a) -> 'a option
(** [opt fs key reader]: the key's single value through [reader];
    ["expected exactly one value"] when it has none or several. *)

val get : ?default:'a -> fields -> string -> (t -> 'a) -> 'a
(** {!opt}, falling back on [default]; without one the field is
    required. *)

val flag : fields -> string -> bool
(** Whether [(key)] is present; ["(key) takes no arguments"] when it
    carries any. *)
