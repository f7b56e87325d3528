(** Plain-text table rendering for the benchmark harness.

    The bench executable regenerates the paper's tables as aligned ASCII;
    this module does the layout. *)

type align = Left | Right

val render :
  ?align:align list ->
  header:string list ->
  string list list ->
  string
(** [render ~header rows] lays out the rows under the header with column
    separators and a rule under the header.  Rows shorter than the header
    are padded with empty cells; [align] defaults to [Left] for every
    column. *)

val render_titled :
  ?align:align list ->
  title:string ->
  header:string list ->
  string list list ->
  string
(** Like {!render} with a title line and surrounding rule. *)

val cell_fixed : ?decimals:int -> float -> string
(** Fixed-point cell, e.g. for the paper's "206.20" style values. *)

val cell_pct : float -> string
(** Percentage cell with sign, e.g. [cell_pct 0.138 = "13.8%"]. *)
