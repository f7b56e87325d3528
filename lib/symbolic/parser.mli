(** Infix expression parser.

    Grammar (precedence climbing):
    {v
      expr   := term (('+' | '-') term)*
      term   := unary (('*' | '/') unary)*
      unary  := '-' unary | power
      power  := atom ('^' number)?
      atom   := number | ident | ident '(' expr ')' | '(' expr ')'
    v}
    Recognised functions: [sqrt], [abs], [log], [exp].  Numbers accept
    scientific notation and trailing SI prefixes ([2.5u], [10k], [1.3MEG]
    in SPICE style). *)

exception Parse_error of string * int
(** Message and character position. *)

val parse : string -> Expr.t
(** Raises {!Parse_error}. *)
