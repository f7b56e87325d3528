(** Passive elements: resistors and capacitors with layout-area
    estimates, used by the level-4 module library (filters, S&H, ADC
    ladders). *)

type resistor = { r : float;  (** Ω *) area : float  (** m² *) }
type capacitor = { c : float;  (** F *) area : float  (** m² *) }

val resistor : Ape_process.Process.t -> float -> resistor
(** Raises [Invalid_argument] on non-positive value. *)

val capacitor : Ape_process.Process.t -> float -> capacitor

val e96_round : float -> float
(** Snap to the nearest E96 (1 %) standard value — what a designer would
    actually draw.  Positive inputs only. *)
