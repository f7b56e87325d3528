type pos = { line : int; col : int }
type span = { s_start : pos; s_end : pos }
type t = Atom of string * span | List of t list * span

exception Error of { span : span; msg : string }

let fail span msg = raise (Error { span; msg })
let fail_pos pos msg = fail { s_start = pos; s_end = pos } msg

let span_of = function Atom (_, s) -> s | List (_, s) -> s

let pp_pos p = Printf.sprintf "%d:%d" p.line p.col

let pp_span s =
  if s.s_start.line = s.s_end.line && s.s_end.col <= s.s_start.col + 1 then
    pp_pos s.s_start
  else Printf.sprintf "%s-%s" (pp_pos s.s_start) (pp_pos s.s_end)

(* One pass over the text, tracking line/col as we go.  Tokens carry
   their spans; the recursive-descent pass below only assembles lists. *)
type token =
  | T_open of pos
  | T_close of pos
  | T_atom of string * span

let tokenize text =
  let n = String.length text in
  let tokens = ref [] in
  let line = ref 1 and col = ref 1 in
  let i = ref 0 in
  let here () = { line = !line; col = !col } in
  let advance c =
    if Char.equal c '\n' then begin
      incr line;
      col := 1
    end
    else incr col;
    incr i
  in
  let read_quoted () =
    let start = here () in
    let buf = Buffer.create 16 in
    advance '"';
    let rec loop () =
      if !i >= n then fail_pos start "unterminated string"
      else
        match text.[!i] with
        | '"' ->
          advance '"';
          Buffer.contents buf
        | '\\' ->
          advance '\\';
          if !i >= n then fail_pos start "unterminated string"
          else begin
            let c = text.[!i] in
            (match c with
            | '\\' -> Buffer.add_char buf '\\'
            | '"' -> Buffer.add_char buf '"'
            | 'n' -> Buffer.add_char buf '\n'
            | 't' -> Buffer.add_char buf '\t'
            | other ->
              fail_pos (here ())
                (Printf.sprintf "unknown escape '\\%c'" other));
            advance c;
            loop ()
          end
        | c ->
          Buffer.add_char buf c;
          advance c;
          loop ()
    in
    let contents = loop () in
    tokens := T_atom (contents, { s_start = start; s_end = here () }) :: !tokens
  in
  let read_bare () =
    let start = here () in
    let buf = Buffer.create 16 in
    let rec loop () =
      if !i < n then
        match text.[!i] with
        | '(' | ')' | ';' | '"' | ' ' | '\t' | '\n' | '\r' -> ()
        | c ->
          Buffer.add_char buf c;
          advance c;
          loop ()
    in
    loop ();
    tokens :=
      T_atom (Buffer.contents buf, { s_start = start; s_end = here () })
      :: !tokens
  in
  while !i < n do
    match text.[!i] with
    | ';' ->
      while !i < n && text.[!i] <> '\n' do
        advance text.[!i]
      done
    | '(' ->
      tokens := T_open (here ()) :: !tokens;
      advance '('
    | ')' ->
      tokens := T_close (here ()) :: !tokens;
      advance ')'
    | '"' -> read_quoted ()
    | (' ' | '\t' | '\n' | '\r') as c -> advance c
    | _ -> read_bare ()
  done;
  List.rev !tokens

let parse text =
  let rec parse_list opened acc = function
    | [] -> fail_pos opened "unbalanced '(': no matching ')'"
    | T_close close :: rest ->
      let span =
        { s_start = opened; s_end = { close with col = close.col + 1 } }
      in
      (List (List.rev acc, span), rest)
    | T_open pos :: rest ->
      let inner, rest = parse_list pos [] rest in
      parse_list opened (inner :: acc) rest
    | T_atom (a, span) :: rest ->
      parse_list opened (Atom (a, span) :: acc) rest
  in
  let rec top acc = function
    | [] -> List.rev acc
    | T_open pos :: rest ->
      let inner, rest = parse_list pos [] rest in
      top (inner :: acc) rest
    | T_atom (a, span) :: rest -> top (Atom (a, span) :: acc) rest
    | T_close pos :: _ -> fail_pos pos "unbalanced ')'"
  in
  top [] (tokenize text)

(* ------------------------------------------------------------------ *)
(* Typed fields: the one way a file's (key value ...) lists become     *)
(* values, and the number rule command-line flags share.              *)
(* ------------------------------------------------------------------ *)

type 'a rule = string -> ('a, string) result

let finite s =
  match Units.parse_number s with
  | Some v when Float.is_finite v -> Ok v
  | Some _ -> Result.Error "number must be finite"
  | None -> Result.Error (Printf.sprintf "not a number: '%s'" s)

let satisfying ok complaint rule s =
  Result.bind (rule s) (fun v ->
      if ok v then Ok v else Result.Error (complaint v))

let positive =
  satisfying (fun v -> v > 0.) (fun _ -> "number must be > 0") finite

let integer s =
  match int_of_string_opt s with
  | Some v -> Ok v
  | None -> Result.Error (Printf.sprintf "not an integer: '%s'" s)

let enum name choices s =
  match List.assoc_opt s choices with
  | Some v -> Ok v
  | None ->
    Result.Error
      (Printf.sprintf "unknown %s '%s' (expected %s)" name s
         (String.concat "|" (List.map fst choices)))

let atom = function
  | Atom (a, _) -> a
  | List (_, s) -> fail s "expected an atom, got a list"

let read rule node =
  match rule (atom node) with
  | Ok v -> v
  | Result.Error msg -> fail (span_of node) msg

type field = { key : string; args : t list; span : span }

type fields = {
  form : span;
  items : field list;
  whole : bool;
  mutable used : string list;
}

let fields ?(repeatable = []) ?(whole = false) form nodes =
  let items =
    List.map
      (function
        | List (Atom (key, _) :: args, span) -> { key; args; span }
        | List (_, span) -> fail span "field must start with a keyword atom"
        | Atom (a, span) ->
          fail span
            (Printf.sprintf
               "bare atom '%s' (fields are written as lists, e.g. (%s))" a a))
      nodes
  in
  ignore
    (List.fold_left
       (fun seen f ->
         if List.mem f.key seen && not (List.mem f.key repeatable) then
           fail f.span ("duplicate field '" ^ f.key ^ "'");
         f.key :: seen)
       [] items);
  { form; items; whole; used = [] }

(* Only keys that are present need marking: [finish] asks about those. *)
let all fs key =
  match List.filter (fun f -> String.equal f.key key) fs.items with
  | [] -> []
  | found ->
    fs.used <- key :: fs.used;
    found

let find fs key = match all fs key with f :: _ -> Some f | [] -> None

let require fs key =
  match find fs key with
  | Some f -> f
  | None -> fail fs.form (Printf.sprintf "missing required field (%s _)" key)

let finish fs =
  List.iter
    (fun f ->
      if not (List.exists (String.equal f.key) fs.used) then
        fail f.span ("unknown field '" ^ f.key ^ "'"))
    fs.items

let one f =
  match f.args with
  | [ v ] -> v
  | _ -> fail f.span "expected exactly one value"

let value fs reader f =
  if not fs.whole then reader (one f)
  else
    try reader (one f) with Error { msg; _ } -> fail f.span msg

let opt fs key reader = Option.map (value fs reader) (find fs key)

let get ?default fs key reader =
  match default with
  | Some d -> Option.value ~default:d (opt fs key reader)
  | None -> value fs reader (require fs key)

let flag fs key =
  match find fs key with
  | None -> false
  | Some { args = []; _ } -> true
  | Some f -> fail f.span ("(" ^ key ^ ") takes no arguments")
