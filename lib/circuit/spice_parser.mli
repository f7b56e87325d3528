(** Dialect-aware SPICE netlist ingestion.

    The front end is built on the span-preserving {!Lexer}: comments
    and continuation lines are removed without destroying positions,
    so every diagnostic points at the exact line/column of the
    original deck and quotes the offending source line with a caret.

    Supported dialect subset (ngspice-flavoured baseline):

    - elements: MOSFETs ([Mname d g s b model W=.. L=.. \[M=..\]]),
      resistors/capacitors (positional or [R=]/[C=] keyed value),
      independent V/I sources ([\[value\] \[DC v\] \[AC mag \[phase\]\]]),
      VCVS ([Ename p n cp cn gain]), switches
      ([Wname a b ctrl RON=.. ROFF=.. VT=..]) and subcircuit
      instances ([Xname n1 .. nk subname \[p=v ..\]]);
    - [.MODEL] (each value read from its own token — a finite number
      or a brace expression — into {!Ape_process.Card_parser}'s
      name → field table);
    - parameterized [.SUBCKT]/[.ENDS] with recursive flattening,
      hierarchical node renaming ([X1.node]) and ngspice-style
      element paths ([R.X1.R1]); instantiation cycles are detected;
    - [.PARAM] and brace/quote expression values ([{2*rbase}]),
      evaluated with {!Ape_symbolic.Parser};
    - [.INCLUDE]/[.LIB] resolution relative to the including file,
      with cycle detection; [.LIB file section] extracts the
      [.LIB section] … [.ENDL] slice;
    - analysis control lines [.OP]/[.AC]/[.DC]/[.TRAN] recorded as
      {!directive}s instead of raising; [.TITLE]; a list of known
      housekeeping directives ([.OPTIONS], [.SAVE], …) is accepted
      with a warning; [.CONTROL] blocks are skipped.

    Keyed parameters tolerate whitespace around [=].  Errors are
    recovering: one bad card yields a diagnostic and parsing
    continues, so a broken deck reports {e all} of its problems. *)

type dialect =
  | Ngspice  (** inline comments [$] and [;] (default) *)
  | Hspice  (** inline comment [$] only *)
  | Spice2  (** no inline comments *)

type severity = Error | Warning

type diagnostic = {
  severity : severity;
  file : string;
  span : Token.span;
  msg : string;
  source : string option;  (** the offending source line, if known *)
}

exception Parse_error of diagnostic
(** Raised by {!parse} on the first error (compatibility entry
    point); {!parse_result} never raises. *)

type directive = { d_name : string; d_args : string list }
(** A recorded analysis directive: [d_name] is lowercase without the
    leading dot (["ac"]), [d_args] are the raw argument tokens. *)

type result = {
  netlist : Netlist.t;  (** flattened; partial if [diagnostics] has errors *)
  analyses : directive list;  (** in deck order *)
  diagnostics : diagnostic list;  (** in source order *)
}

val parse_result :
  ?process:Ape_process.Process.t ->
  ?dialect:dialect ->
  ?path:string ->
  title:string ->
  string ->
  result
(** Parse a deck with error recovery.  [path] is the file the text
    was read from; it labels diagnostics and anchors [.INCLUDE]
    resolution (default: [title] as the label, includes resolved
    relative to the working directory).  Model references resolve
    against the deck's own [.MODEL] cards first, then the process
    cards (by name, or the generic [NMOS]/[PMOS]).  The netlist is
    validated with {!Netlist.validate} only when no errors were
    recorded. *)

val parse :
  ?process:Ape_process.Process.t ->
  ?dialect:dialect ->
  ?path:string ->
  title:string ->
  string ->
  Netlist.t
(** [parse_result] that raises {!Parse_error} on the first error. *)

val errors : result -> diagnostic list
val warnings : result -> diagnostic list

val render : diagnostic -> string
(** Multi-line rendering: ["file:line:col: error: msg"], the source
    line, and a caret marking the span.  Ends with a newline. *)

val render_short : diagnostic -> string
(** One-line rendering without the source quote (no newline). *)

val to_canonical : result -> string
(** The canonical printed form: the flattened netlist in
    {!Netlist.to_spice} syntax followed by [.TITLE] and the recorded
    analysis directives.  Feeding the output back through
    {!parse_result} reaches a byte-identical fixpoint ([ape convert]
    relies on this). *)
