(** Plain-text table rendering for the benchmark harness.

    The bench executable regenerates the paper's tables as aligned ASCII;
    this module does the layout. *)

val render : header:string list -> string list list -> string
(** [render ~header rows] lays out the rows under the header, every cell
    left-aligned, with column separators and a rule under the header.
    Rows shorter than the header are padded with empty cells. *)

val render_titled :
  title:string -> header:string list -> string list list -> string
(** Like {!render} with a title line and surrounding rule. *)

val cell_pct : float -> string
(** Percentage cell with sign, e.g. [cell_pct 0.138 = "13.8%"]. *)
