exception Parse_error of string * int

type token =
  | Tnum of float
  | Tident of string
  | Tplus
  | Tminus
  | Tstar
  | Tslash
  | Tcaret
  | Tlparen
  | Trparen
  | Teof

let is_digit c = c >= '0' && c <= '9'
let is_alpha c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident c = is_alpha c || is_digit c

let tokenize s =
  let n = String.length s in
  let tokens = ref [] in
  let i = ref 0 in
  while !i < n do
    let c = s.[!i] in
    if c = ' ' || c = '\t' || c = '\n' then incr i
    else if is_digit c || (c = '.' && !i + 1 < n && is_digit s.[!i + 1]) then begin
      let start = !i in
      while
        !i < n
        && (is_digit s.[!i] || s.[!i] = '.'
           || ((s.[!i] = 'e' || s.[!i] = 'E')
              && !i + 1 < n
              && (is_digit s.[!i + 1] || s.[!i + 1] = '+' || s.[!i + 1] = '-')))
      do
        if s.[!i] = 'e' || s.[!i] = 'E' then begin
          incr i;
          if s.[!i] = '+' || s.[!i] = '-' then incr i
        end
        else incr i
      done;
      let text = String.sub s start (!i - start) in
      (* A letter glued to the mantissa is a SPICE magnitude suffix:
         "5k", "10meg", "2.2u".  The grammar has no juxtaposition
         product, so this is unambiguous. *)
      let sstart = !i in
      while !i < n && is_ident s.[!i] do
        incr i
      done;
      let suffix = String.sub s sstart (!i - sstart) in
      match float_of_string_opt text with
      | None -> raise (Parse_error ("bad number " ^ text, start))
      | Some v ->
        if suffix = "" then tokens := (Tnum v, start) :: !tokens
        else (
          match Ape_util.Units.suffix_multiplier suffix with
          | Some mult -> tokens := (Tnum (v *. mult), start) :: !tokens
          | None ->
            raise
              (Parse_error ("unknown magnitude suffix " ^ suffix, sstart)))
    end
    else if is_alpha c then begin
      let start = !i in
      while !i < n && is_ident s.[!i] do
        incr i
      done;
      tokens := (Tident (String.sub s start (!i - start)), start) :: !tokens
    end
    else begin
      let tok =
        match c with
        | '+' -> Tplus
        | '-' -> Tminus
        | '*' -> Tstar
        | '/' -> Tslash
        | '^' -> Tcaret
        | '(' -> Tlparen
        | ')' -> Trparen
        | _ -> raise (Parse_error (Printf.sprintf "unexpected '%c'" c, !i))
      in
      tokens := (tok, !i) :: !tokens;
      incr i
    end
  done;
  tokens := (Teof, n) :: !tokens;
  Array.of_list (List.rev !tokens)

type state = { toks : (token * int) array; mutable pos : int }

let peek st = fst st.toks.(st.pos)
let pos_of st = snd st.toks.(st.pos)
let advance st = st.pos <- st.pos + 1

let expect st tok msg =
  if peek st = tok then advance st else raise (Parse_error (msg, pos_of st))

let functions = [ "sqrt"; "abs"; "log"; "exp" ]

let rec parse_expr st =
  let lhs = ref (parse_term st) in
  let continue = ref true in
  while !continue do
    match peek st with
    | Tplus ->
      advance st;
      lhs := Expr.Add (!lhs, parse_term st)
    | Tminus ->
      advance st;
      lhs := Expr.Sub (!lhs, parse_term st)
    | Tnum _ | Tident _ | Tstar | Tslash | Tcaret | Tlparen | Trparen | Teof
      ->
      continue := false
  done;
  !lhs

and parse_term st =
  let lhs = ref (parse_unary st) in
  let continue = ref true in
  while !continue do
    match peek st with
    | Tstar ->
      advance st;
      lhs := Expr.Mul (!lhs, parse_unary st)
    | Tslash ->
      advance st;
      lhs := Expr.Div (!lhs, parse_unary st)
    | Tnum _ | Tident _ | Tplus | Tminus | Tcaret | Tlparen | Trparen | Teof
      ->
      continue := false
  done;
  !lhs

and parse_unary st =
  match peek st with
  | Tminus ->
    advance st;
    Expr.Neg (parse_unary st)
  | Tnum _ | Tident _ | Tplus | Tstar | Tslash | Tcaret | Tlparen | Trparen
  | Teof ->
    parse_power st

and parse_power st =
  let base = parse_atom st in
  match peek st with
  | Tcaret -> (
    advance st;
    let sign =
      if peek st = Tminus then begin
        advance st;
        -1.
      end
      else 1.
    in
    match peek st with
    | Tnum v ->
      advance st;
      Expr.Pow (base, sign *. v)
    | _ -> raise (Parse_error ("exponent must be a number", pos_of st)))
  | Tnum _ | Tident _ | Tplus | Tminus | Tstar | Tslash | Tlparen | Trparen
  | Teof ->
    base

and parse_atom st =
  match peek st with
  | Tnum v ->
    advance st;
    Expr.Const v
  | Tident name ->
    advance st;
    if peek st = Tlparen then begin
      if not (List.mem name functions) then
        raise (Parse_error ("unknown function " ^ name, pos_of st));
      advance st;
      let arg = parse_expr st in
      expect st Trparen "expected ')'";
      match name with
      | "sqrt" -> Expr.Sqrt arg
      | "abs" -> Expr.Abs arg
      | "log" -> Expr.Log arg
      | "exp" -> Expr.Exp arg
      | _ -> assert false
    end
    else Expr.Var name
  | Tlparen ->
    advance st;
    let e = parse_expr st in
    expect st Trparen "expected ')'";
    e
  | Tplus | Tminus | Tstar | Tslash | Tcaret | Trparen | Teof ->
    raise (Parse_error ("expected an atom", pos_of st))

let parse s =
  let st = { toks = tokenize s; pos = 0 } in
  let e = parse_expr st in
  if peek st <> Teof then raise (Parse_error ("trailing input", pos_of st));
  e
