(** [.MODEL] card parameters: the name → field table.

    The deck reader ({!Ape_circuit.Spice_parser}) lexes a card once and
    hands its [KEY=value] pairs here as numbers.  Keys are upper-case;
    unknown keys are ignored (SPICE decks carry many parameters the
    Level-1..3 equations never read); missing keys fall back to the
    built-in defaults of the polarity; a repeated key's last value
    wins. *)

exception Bad_card of string

val known : string -> bool
(** Whether the table reads this (upper-case) key: only known keys'
    values need to be numbers. *)

val card : name:string -> kind:string -> (string * float) list -> Model_card.t
(** [card ~name ~kind values] builds a card of device type [kind]
    ([NMOS] or [PMOS], any case) from its parameters in card order.
    [LEVEL] picks the model (1, 2, 3; 4 or 13 is BSIM1); [U0]/[UO] is
    read in cm²/Vs when above 1; [KP] and [U0] are kept consistent
    through the card's Cox, [KP] winning when both are given.  Raises
    {!Bad_card} on an unsupported device type or [LEVEL]. *)
