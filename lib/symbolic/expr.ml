type t =
  | Const of float
  | Var of string
  | Neg of t
  | Add of t * t
  | Sub of t * t
  | Mul of t * t
  | Div of t * t
  | Pow of t * float
  | Sqrt of t
  | Abs of t
  | Log of t
  | Exp of t

let const c = Const c
let var name = Var name
let ( + ) a b = Add (a, b)
let ( - ) a b = Sub (a, b)
let ( * ) a b = Mul (a, b)
let ( / ) a b = Div (a, b)
let ( ** ) a e = Pow (a, e)
let neg a = Neg a
let sqrt a = Sqrt a
let log a = Log a
let exp a = Exp a

module String_map = Map.Make (String)

module Env = struct
  type t = float String_map.t

  let empty = String_map.empty
  let of_list l = List.fold_left (fun m (k, v) -> String_map.add k v m) empty l
  let add = String_map.add
  let find_opt = String_map.find_opt
end

exception Unbound_variable of string
exception Domain_error of string

let rec eval env e =
  match e with
  | Const c -> c
  | Var name -> (
    match Env.find_opt name env with
    | Some v -> v
    | None -> raise (Unbound_variable name))
  | Neg a -> Stdlib.( ~-. ) (eval env a)
  | Add (a, b) -> Stdlib.( +. ) (eval env a) (eval env b)
  | Sub (a, b) -> Stdlib.( -. ) (eval env a) (eval env b)
  | Mul (a, b) -> Stdlib.( *. ) (eval env a) (eval env b)
  | Div (a, b) ->
    let d = eval env b in
    if d = 0. then raise (Domain_error "division by zero")
    else Stdlib.( /. ) (eval env a) d
  | Pow (a, p) ->
    let base = eval env a in
    if base < 0. && not (Float.is_integer p) then
      raise (Domain_error "negative base, fractional exponent")
    else Stdlib.( ** ) base p
  | Sqrt a ->
    let v = eval env a in
    if v < 0. then raise (Domain_error "sqrt of negative") else Float.sqrt v
  | Abs a -> Float.abs (eval env a)
  | Log a ->
    let v = eval env a in
    if v <= 0. then raise (Domain_error "log of non-positive")
    else Float.log v
  | Exp a -> Float.exp (eval env a)

module String_set = Set.Make (String)

let vars e =
  let rec collect acc = function
    | Const _ -> acc
    | Var name -> String_set.add name acc
    | Neg a | Sqrt a | Abs a | Log a | Exp a | Pow (a, _) -> collect acc a
    | Add (a, b) | Sub (a, b) | Mul (a, b) | Div (a, b) ->
      collect (collect acc a) b
  in
  String_set.elements (collect String_set.empty e)

let rec subst name replacement e =
  let s = subst name replacement in
  match e with
  | Const _ -> e
  | Var n -> if String.equal n name then replacement else e
  | Neg a -> Neg (s a)
  | Add (a, b) -> Add (s a, s b)
  | Sub (a, b) -> Sub (s a, s b)
  | Mul (a, b) -> Mul (s a, s b)
  | Div (a, b) -> Div (s a, s b)
  | Pow (a, p) -> Pow (s a, p)
  | Sqrt a -> Sqrt (s a)
  | Abs a -> Abs (s a)
  | Log a -> Log (s a)
  | Exp a -> Exp (s a)

(* d/dx of each constructor; Abs differentiates to sign(a)·a' which we
   express as a / |a| · a'. *)
let rec diff name e =
  let d = diff name in
  match e with
  | Const _ -> Const 0.
  | Var n -> if String.equal n name then Const 1. else Const 0.
  | Neg a -> Neg (d a)
  | Add (a, b) -> Add (d a, d b)
  | Sub (a, b) -> Sub (d a, d b)
  | Mul (a, b) -> Add (Mul (d a, b), Mul (a, d b))
  | Div (a, b) -> Div (Sub (Mul (d a, b), Mul (a, d b)), Mul (b, b))
  | Pow (a, p) -> Mul (Mul (Const p, Pow (a, Stdlib.( -. ) p 1.)), d a)
  | Sqrt a -> Div (d a, Mul (Const 2., Sqrt a))
  | Abs a -> Mul (Div (a, Abs a), d a)
  | Log a -> Div (d a, a)
  | Exp a -> Mul (Exp a, d a)

let rec simplify e =
  let e =
    match e with
    | Const _ | Var _ -> e
    | Neg a -> Neg (simplify a)
    | Add (a, b) -> Add (simplify a, simplify b)
    | Sub (a, b) -> Sub (simplify a, simplify b)
    | Mul (a, b) -> Mul (simplify a, simplify b)
    | Div (a, b) -> Div (simplify a, simplify b)
    | Pow (a, p) -> Pow (simplify a, p)
    | Sqrt a -> Sqrt (simplify a)
    | Abs a -> Abs (simplify a)
    | Log a -> Log (simplify a)
    | Exp a -> Exp (simplify a)
  in
  match e with
  | Neg (Const c) -> Const (Stdlib.( ~-. ) c)
  | Neg (Neg a) -> a
  | Add (Const a, Const b) -> Const (Stdlib.( +. ) a b)
  | Add (Const 0., a) | Add (a, Const 0.) -> a
  | Sub (Const a, Const b) -> Const (Stdlib.( -. ) a b)
  | Sub (a, Const 0.) -> a
  | Sub (Const 0., a) -> Neg a
  | Mul (Const a, Const b) -> Const (Stdlib.( *. ) a b)
  | Mul (Const 0., _) | Mul (_, Const 0.) -> Const 0.
  | Mul (Const 1., a) | Mul (a, Const 1.) -> a
  | Div (Const 0., _) -> Const 0.
  | Div (a, Const 1.) -> a
  | Div (Const a, Const b) when b <> 0. -> Const (Stdlib.( /. ) a b)
  | Pow (_, 0.) -> Const 1.
  | Pow (a, 1.) -> a
  | Pow (Const c, p) when c >= 0. -> Const (Stdlib.( ** ) c p)
  | Sqrt (Const c) when c >= 0. -> Const (Float.sqrt c)
  | Abs (Const c) -> Const (Float.abs c)
  | Log (Const 1.) -> Const 0.
  | Exp (Const 0.) -> Const 1.
  | other -> other

let equal a b = simplify a = simplify b

(* Precedence: Add/Sub = 1, Mul/Div = 2, unary = 3, Pow = 4. *)
let rec pp_prec prec fmt e =
  let paren p body =
    if Stdlib.( < ) p prec then Format.fprintf fmt "(%t)" body
    else body fmt
  in
  match e with
  | Const c ->
    (* Shortest representation that reparses to the same float. *)
    let repr =
      let short = Printf.sprintf "%g" c in
      if float_of_string short = c then short else Printf.sprintf "%.17g" c
    in
    if c < 0. then Format.fprintf fmt "(%s)" repr
    else Format.pp_print_string fmt repr
  | Var name -> Format.pp_print_string fmt name
  | Add (a, b) ->
    paren 1 (fun fmt ->
        Format.fprintf fmt "%a + %a" (pp_prec 1) a (pp_prec 1) b)
  | Sub (a, b) ->
    paren 1 (fun fmt ->
        Format.fprintf fmt "%a - %a" (pp_prec 1) a (pp_prec 2) b)
  | Mul (a, b) ->
    paren 2 (fun fmt ->
        Format.fprintf fmt "%a * %a" (pp_prec 2) a (pp_prec 2) b)
  | Div (a, b) ->
    paren 2 (fun fmt ->
        Format.fprintf fmt "%a / %a" (pp_prec 2) a (pp_prec 3) b)
  | Neg a -> paren 3 (fun fmt -> Format.fprintf fmt "-%a" (pp_prec 3) a)
  | Pow (a, p) ->
    paren 4 (fun fmt -> Format.fprintf fmt "%a^%g" (pp_prec 4) a p)
  | Sqrt a -> Format.fprintf fmt "sqrt(%a)" (pp_prec 0) a
  | Abs a -> Format.fprintf fmt "abs(%a)" (pp_prec 0) a
  | Log a -> Format.fprintf fmt "log(%a)" (pp_prec 0) a
  | Exp a -> Format.fprintf fmt "exp(%a)" (pp_prec 0) a

let pp fmt e = pp_prec 0 fmt e
let to_string e = Format.asprintf "%a" pp e
