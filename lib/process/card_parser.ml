exception Bad_card of string

let level_of v =
  match int_of_float v with
  | 1 -> Model_card.Level1
  | 2 -> Model_card.Level2
  | 3 -> Model_card.Level3
  | 4 | 13 -> Model_card.Bsim1
  | n -> raise (Bad_card (Printf.sprintf "unsupported LEVEL=%d" n))

(* SPICE U0 is in cm²/Vs; accept SI if the magnitude is tiny. *)
let u0_of raw = if raw > 1. then raw *. 1e-4 else raw

let params : (string * (Model_card.t -> float -> Model_card.t)) list =
  Model_card.
    [
      ("LEVEL", fun c v -> { c with level = level_of v });
      ("VTO", fun c v -> { c with vto = v });
      ("VTH0", fun c v -> { c with vto = v });
      ("KP", fun c v -> { c with kp = v });
      ("GAMMA", fun c v -> { c with gamma = v });
      ("PHI", fun c v -> { c with phi = v });
      ("LAMBDA", fun c v -> { c with lambda = v });
      ("LREF", fun c v -> { c with lref = v });
      ("TOX", fun c v -> { c with tox = v });
      ("U0", fun c v -> { c with u0 = u0_of v });
      ("UO", fun c v -> { c with u0 = u0_of v });
      ("THETA", fun c v -> { c with theta = v });
      ("VMAX", fun c v -> { c with vmax = v });
      ("ETA", fun c v -> { c with eta = v });
      ("CGSO", fun c v -> { c with cgso = v });
      ("CGDO", fun c v -> { c with cgdo = v });
      ("CGBO", fun c v -> { c with cgbo = v });
      ("CJ", fun c v -> { c with cj = v });
      ("MJ", fun c v -> { c with mj = v });
      ("CJSW", fun c v -> { c with cjsw = v });
      ("MJSW", fun c v -> { c with mjsw = v });
      ("PB", fun c v -> { c with pb = v });
      ("LD", fun c v -> { c with ld = v });
      ("IS", fun c v -> { c with is_leak = v });
      ("KF", fun c v -> { c with kf = v });
      ("AF", fun c v -> { c with af = v });
      ("AVT", fun c v -> { c with avt = v });
    ]

let known key = List.mem_assoc key params

let card ~name ~kind values =
  let mos_type =
    match String.uppercase_ascii kind with
    | "NMOS" -> Model_card.Nmos
    | "PMOS" -> Model_card.Pmos
    | other -> raise (Bad_card ("unsupported device type " ^ other))
  in
  let base =
    match mos_type with
    | Model_card.Nmos -> Model_card.default_nmos
    | Model_card.Pmos -> Model_card.default_pmos
  in
  (* Unknown keys are legal in real decks: skip them. *)
  let card =
    List.fold_left
      (fun card (key, v) ->
        match List.assoc_opt key params with
        | Some set -> set card v
        | None -> card)
      { base with Model_card.name; mos_type }
      values
  in
  (* Keep u0 and kp consistent: KP wins if both were given. *)
  let given keys = List.exists (fun (k, _) -> List.mem k keys) values in
  let cox = Model_card.cox card in
  if given [ "KP" ] then { card with Model_card.u0 = card.Model_card.kp /. cox }
  else if given [ "U0"; "UO" ] then
    { card with Model_card.kp = card.Model_card.u0 *. cox }
  else card
