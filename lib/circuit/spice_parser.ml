module Card = Ape_process.Model_card
module Card_parser = Ape_process.Card_parser
module Proc = Ape_process.Process
module T = Token
module Expr = Ape_symbolic.Expr
module Sym_parser = Ape_symbolic.Parser
module SMap = Map.Make (String)

type dialect = Ngspice | Hspice | Spice2

let comment_chars = function
  | Ngspice -> [ '$'; ';' ]
  | Hspice -> [ '$' ]
  | Spice2 -> []

type severity = Error | Warning

type diagnostic = {
  severity : severity;
  file : string;
  span : T.span;
  msg : string;
  source : string option;
}

type directive = { d_name : string; d_args : string list }

type result = {
  netlist : Netlist.t;
  analyses : directive list;
  diagnostics : diagnostic list;
}

let errors r = List.filter (fun d -> d.severity = Error) r.diagnostics
let warnings r = List.filter (fun d -> d.severity = Warning) r.diagnostics

(* ---------- rendering ---------- *)

let render_short d =
  Printf.sprintf "%s:%s: %s: %s" d.file
    (T.pp_pos d.span.T.first)
    (match d.severity with Error -> "error" | Warning -> "warning")
    d.msg

let render d =
  match d.source with
  | None -> render_short d ^ "\n"
  | Some line ->
    (* Tabs become single spaces so the caret column stays aligned
       with the displayed text. *)
    let display = String.map (fun c -> if c = '\t' then ' ' else c) line in
    let len = String.length display in
    let c0 = Int.min d.span.T.first.T.col (len + 1) in
    let c1 =
      if d.span.T.last.T.line = d.span.T.first.T.line then
        Int.min d.span.T.last.T.col (len + 1)
      else c0
    in
    Printf.sprintf "%s\n  %s\n  %s%s\n" (render_short d) display
      (String.make (c0 - 1) ' ')
      (String.make (Int.max 1 (c1 - c0 + 1)) '^')

(* ---------- parser state ---------- *)

type src = { file : string; lx : Lexer.t }
type stmt = { src : src; toks : T.t list (* non-empty *) }

type subckt = {
  s_name : string;
  s_ports : string list;
  s_defaults : (string * T.t) list;  (* lowercase key, value token *)
  s_body : stmt list;
  s_src : src;
}

type state = {
  proc : Proc.t;
  dialect : dialect;
  mutable diags : diagnostic list;  (* reversed *)
  models : (string, Card.t) Hashtbl.t;
  subckts : (string, subckt) Hashtbl.t;  (* lowercase name *)
  mutable params : float SMap.t;  (* lowercase name *)
  mutable analyses : directive list;  (* reversed *)
  mutable elements : Netlist.element list;  (* reversed *)
  mutable title : string;
}

let diag st (src : src) severity span msg =
  st.diags <-
    {
      severity;
      file = src.file;
      span;
      msg;
      source = Lexer.source_line src.lx span.T.first.T.line;
    }
    :: st.diags

let error st src span msg = diag st src Error span msg
let warn st src span msg = diag st src Warning span msg

let card_span toks =
  List.fold_left
    (fun acc (t : T.t) -> T.merge acc t.T.span)
    (List.hd toks).T.span toks

let tok_text (t : T.t) =
  match t.T.kind with
  | T.Word -> t.T.text
  | T.Equals -> "="
  | T.Braced -> "{" ^ t.T.text ^ "}"

let keyword (s : stmt) =
  match s.toks with
  | { T.kind = T.Word; text; _ } :: _ when String.length text > 0 && text.[0] = '.'
    ->
    Some (String.lowercase_ascii text)
  | _ -> None

let unquote s =
  let n = String.length s in
  if n >= 2 && ((s.[0] = '"' && s.[n - 1] = '"') || (s.[0] = '\'' && s.[n - 1] = '\''))
  then String.sub s 1 (n - 2)
  else s

(* ---------- values & expressions ---------- *)

let lookup_param env name = SMap.find_opt (String.lowercase_ascii name) env

let eval_expr st src env (tok : T.t) =
  match Sym_parser.parse tok.T.text with
  | exception Sym_parser.Parse_error (msg, _) ->
    error st src tok.T.span ("bad expression: " ^ msg);
    None
  | e -> (
    let rec bind acc = function
      | [] -> Some acc
      | v :: tl -> (
        match lookup_param env v with
        | Some x -> bind (Expr.Env.add v x acc) tl
        | None ->
          error st src tok.T.span ("undefined parameter '" ^ v ^ "'");
          None)
    in
    match bind Expr.Env.empty (Expr.vars e) with
    | None -> None
    | Some bound -> (
      match Expr.eval bound e with
      | v when Float.is_finite v -> Some v
      | _ ->
        error st src tok.T.span "expression is not a finite number";
        None
      | exception Expr.Domain_error msg ->
        error st src tok.T.span ("expression error: " ^ msg);
        None))

let value_of st src env (tok : T.t) =
  match tok.T.kind with
  | T.Braced -> eval_expr st src env tok
  | T.Word -> (
    match Ape_util.Units.parse_number tok.T.text with
    | Some v when Float.is_finite v -> Some v
    | Some _ ->
      error st src tok.T.span
        (Printf.sprintf "number must be finite: '%s'" tok.T.text);
      None
    | None -> (
      match lookup_param env tok.T.text with
      | Some v -> Some v
      | None ->
        error st src tok.T.span
          (Printf.sprintf "bad number or unknown parameter '%s'" tok.T.text);
        None))
  | T.Equals ->
    error st src tok.T.span "expected a value, got '='";
    None

(* Split a token list into positional tokens and KEY=value pairs,
   tolerating whitespace around '=' (the lexer makes '=' its own
   token, so "W = 5u", "W= 5u" and "W=5u" are identical here). *)
let split_params st src toks =
  let rec go pos keyed = function
    | [] -> (List.rev pos, List.rev keyed)
    | ({ T.kind = T.Word; _ } as k)
      :: { T.kind = T.Equals; _ }
      :: (({ T.kind = T.Word | T.Braced; _ } as v) :: tl) ->
      go pos ((String.uppercase_ascii k.T.text, v) :: keyed) tl
    | ({ T.kind = T.Word; _ } as k) :: ({ T.kind = T.Equals; _ } as eq) :: tl ->
      error st src (T.merge k.T.span eq.T.span)
        (Printf.sprintf "%s= is missing a value" k.T.text);
      go pos keyed tl
    | ({ T.kind = T.Equals; _ } as t) :: tl ->
      error st src t.T.span "stray '='";
      go pos keyed tl
    | t :: tl -> go (t :: pos) keyed tl
  in
  go [] [] toks

let positional_words st src toks =
  List.filter_map
    (fun (t : T.t) ->
      match t.T.kind with
      | T.Word -> Some t
      | T.Braced | T.Equals ->
        error st src t.T.span
          (Printf.sprintf "unexpected %s (expected a node or name)" (tok_text t));
        None)
    toks

(* ---------- loading: lexing + .include/.lib expansion ---------- *)

let resolve_path dir p =
  let p = unquote p in
  if Filename.is_relative p then Filename.concat dir p else p

let max_include_depth = 32

let rec load st ~inc_stack ~file ~dir text =
  let lx = Lexer.lex ~comment_chars:(comment_chars st.dialect) text in
  let src = { file; lx } in
  List.iter
    (fun (e : Lexer.error) -> error st src e.Lexer.span e.Lexer.msg)
    lx.Lexer.errors;
  expand_includes st ~inc_stack ~dir src lx.Lexer.cards

and expand_includes st ~inc_stack ~dir src cards =
  List.concat_map
    (fun toks ->
      let stmt = { src; toks } in
      match keyword stmt with
      | Some (".include" | ".inc") -> (
        match List.tl toks with
        | [ ({ T.kind = T.Word; _ } as p) ] ->
          include_file st ~inc_stack ~dir src p.T.span (resolve_path dir p.T.text)
            ~section:None
        | _ ->
          error st src (card_span toks) ".include expects one file name";
          [])
      | Some ".lib" -> (
        match List.tl toks with
        | [ ({ T.kind = T.Word; _ } as p) ] ->
          (* one argument: behaves like .include (ngspice) *)
          include_file st ~inc_stack ~dir src p.T.span (resolve_path dir p.T.text)
            ~section:None
        | [ ({ T.kind = T.Word; _ } as p); { T.kind = T.Word; text = sect; _ } ]
          ->
          include_file st ~inc_stack ~dir src p.T.span (resolve_path dir p.T.text)
            ~section:(Some sect)
        | _ ->
          error st src (card_span toks) ".lib expects 'file' or 'file section'";
          [])
      | _ -> [ stmt ])
    cards

and include_file st ~inc_stack ~dir:_ src span path ~section =
  if List.mem path inc_stack then begin
    error st src span ("circular inclusion of " ^ path);
    []
  end
  else if List.length inc_stack > max_include_depth then begin
    error st src span "include depth exceeded";
    []
  end
  else
    match Ape_util.File.read path with
    | exception Sys_error msg ->
      error st src span ("cannot read include file: " ^ msg);
      []
    | text -> (
      let inc_stack = path :: inc_stack in
      let dir' = Filename.dirname path in
      match section with
      | None -> load st ~inc_stack ~file:path ~dir:dir' text
      | Some sect ->
        (* .lib file section: lex the file, keep the cards between the
           ".lib section" marker and its ".endl", then expand those. *)
        let lx = Lexer.lex ~comment_chars:(comment_chars st.dialect) text in
        let src' = { file = path; lx } in
        List.iter
          (fun (e : Lexer.error) -> error st src' e.Lexer.span e.Lexer.msg)
          lx.Lexer.errors;
        let want = String.lowercase_ascii sect in
        let rec find = function
          | [] ->
            error st src span
              (Printf.sprintf "%s has no library section '%s'" path sect);
            []
          | toks :: tl -> (
            match toks with
            | { T.kind = T.Word; text; _ } :: [ { T.kind = T.Word; text = s; _ } ]
              when String.lowercase_ascii text = ".lib"
                   && String.lowercase_ascii s = want ->
              take [] tl
            | _ -> find tl)
        and take acc = function
          | [] ->
            error st src' (T.span_of ~line:1 ~col:1 ~len:1)
              (Printf.sprintf "library section '%s' is missing .endl" sect);
            List.rev acc
          | toks :: tl -> (
            match toks with
            | { T.kind = T.Word; text; _ } :: _
              when String.lowercase_ascii text = ".endl" ->
              List.rev acc
            | _ -> take (toks :: acc) tl)
        in
        expand_includes st ~inc_stack ~dir:dir' src' (find lx.Lexer.cards))

(* ---------- structuring: .subckt / .ends ---------- *)

type frame = {
  f_header : stmt;
  f_name : string;
  f_ports : string list;
  f_defaults : (string * T.t) list;
  mutable f_body : stmt list;  (* reversed *)
}

let structure st stmts =
  let top = ref [] (* reversed *) in
  let stack = ref [] in
  let emit stmt =
    match !stack with
    | f :: _ -> f.f_body <- stmt :: f.f_body
    | [] -> top := stmt :: !top
  in
  List.iter
    (fun stmt ->
      match keyword stmt with
      | Some ".subckt" -> (
        let rest = List.tl stmt.toks in
        let pos, keyed = split_params st stmt.src rest in
        (* drop an optional bare "params:" separator word *)
        let pos =
          List.filter
            (fun (t : T.t) ->
              String.lowercase_ascii t.T.text <> "params:")
            pos
        in
        match positional_words st stmt.src pos with
        | [] ->
          error st stmt.src (card_span stmt.toks) ".subckt needs a name"
        | name :: ports ->
          stack :=
            {
              f_header = stmt;
              f_name = name.T.text;
              f_ports = List.map (fun (t : T.t) -> t.T.text) ports;
              f_defaults =
                List.map (fun (k, v) -> (String.lowercase_ascii k, v)) keyed;
              f_body = [];
            }
            :: !stack)
      | Some ".ends" -> (
        match !stack with
        | [] ->
          error st stmt.src (card_span stmt.toks) ".ends without open .subckt"
        | f :: tl ->
          stack := tl;
          let key = String.lowercase_ascii f.f_name in
          if Hashtbl.mem st.subckts key then
            error st stmt.src (card_span f.f_header.toks)
              ("duplicate .subckt " ^ f.f_name)
          else
            Hashtbl.add st.subckts key
              {
                s_name = f.f_name;
                s_ports = f.f_ports;
                s_defaults = f.f_defaults;
                s_body = List.rev f.f_body;
                s_src = f.f_header.src;
              })
      | _ -> emit stmt)
    stmts;
  List.iter
    (fun f ->
      error st f.f_header.src (card_span f.f_header.toks)
        (".subckt " ^ f.f_name ^ " is missing its .ends"))
    !stack;
  List.rev !top

(* ---------- .param and .model passes ---------- *)

let param_pass st stmts =
  List.iter
    (fun stmt ->
      if keyword stmt = Some ".param" then begin
        let pos, keyed = split_params st stmt.src (List.tl stmt.toks) in
        List.iter
          (fun (t : T.t) ->
            error st stmt.src t.T.span
              (Printf.sprintf "malformed .param entry %s (expected name=value)"
                 (tok_text t)))
          pos;
        List.iter
          (fun (k, v) ->
            match value_of st stmt.src st.params v with
            | Some x ->
              st.params <- SMap.add (String.lowercase_ascii k) x st.params
            | None -> ())
          keyed
      end)
    stmts

let register_model st stmt =
  let rest = List.tl stmt.toks in
  let pos, keyed = split_params st stmt.src rest in
  match positional_words st stmt.src pos with
  | [ name; kind ] -> (
    (* Each value from its own token: expressions are evaluated (a
       failed one is reported and dropped), a word goes through the
       finite-number rule of every input when the card reads its key. *)
    let readable = ref true in
    let values =
      List.filter_map
        (fun (k, (v : T.t)) ->
          match v.T.kind with
          | T.Braced ->
            Option.map (fun x -> (k, x)) (eval_expr st stmt.src st.params v)
          | T.Word when Card_parser.known k -> (
            match Ape_util.Sexpr.finite v.T.text with
            | Ok x -> Some (k, x)
            | Error msg ->
              readable := false;
              error st stmt.src v.T.span
                (Printf.sprintf "bad value for %s: %s" k msg);
              None)
          | T.Word | T.Equals -> None)
        keyed
    in
    if !readable then
      match Card_parser.card ~name:name.T.text ~kind:kind.T.text values with
      | card ->
        Hashtbl.replace st.models (String.uppercase_ascii card.Card.name) card
      | exception Card_parser.Bad_card msg ->
        error st stmt.src (card_span stmt.toks) msg)
  | _ ->
    error st stmt.src (card_span stmt.toks)
      ".model expects a name and a device type"

let rec model_pass st stmts =
  List.iter
    (fun stmt -> if keyword stmt = Some ".model" then register_model st stmt)
    stmts;
  (* Models defined inside subcircuit bodies are registered globally. *)
  Hashtbl.iter (fun _ sub -> model_pass_body st sub.s_body) st.subckts

and model_pass_body st stmts =
  List.iter
    (fun stmt -> if keyword stmt = Some ".model" then register_model st stmt)
    stmts

let find_model st src (tok : T.t) =
  match Hashtbl.find_opt st.models (String.uppercase_ascii tok.T.text) with
  | Some card -> Some card
  | None ->
    error st src tok.T.span ("unknown model " ^ tok.T.text);
    None

(* ---------- elements ---------- *)

(* Flattened element names follow the ngspice convention: the element
   R1 inside instance X1 of a subcircuit becomes "R.X1.R1" — the
   device letter stays first, so the flattened deck re-parses. *)
let flat_name path name =
  match path with
  | [] -> name
  | _ -> Printf.sprintf "%c.%s.%s" name.[0] (String.concat "." path) name

let keyed_value st src env keyed key =
  match List.assoc_opt key keyed with
  | Some v -> value_of st src env v
  | None -> None

let require_keyed st src env ~span keyed name key =
  match List.assoc_opt key keyed with
  | Some v -> value_of st src env v
  | None ->
    error st src span (Printf.sprintf "%s: missing %s=" name key);
    None

let warn_ignored_keys st src name keyed known =
  List.iter
    (fun (k, (v : T.t)) ->
      if not (List.mem k known) then
        warn st src v.T.span
          (Printf.sprintf "%s: parameter %s is ignored" name k))
    keyed

let transient_specs = [ "SIN"; "PULSE"; "PWL"; "EXP"; "SFFM"; "AM" ]

(* DC/AC clauses for independent sources.  Accepted forms, in order:
   an optional leading bare value (the DC value), then any of "DC v"
   and "AC mag [phase]".  A bare value *after* a clause is an error —
   "V1 1 0 DC 0 5" used to silently overwrite the explicit DC 0. *)
let parse_source_values st src env name toks =
  let uc (t : T.t) =
    if t.T.kind = T.Word then String.uppercase_ascii t.T.text else ""
  in
  let rec loop dc ac ~seen_dc ~seen_ac ~seen_bare = function
    | [] -> Some (dc, ac)
    | t :: tl when uc t = "DC" ->
      if seen_dc then begin
        error st src t.T.span (name ^ ": duplicate DC clause");
        None
      end
      else (
        match tl with
        | v :: tl -> (
          match value_of st src env v with
          | Some x -> loop x ac ~seen_dc:true ~seen_ac ~seen_bare tl
          | None -> None)
        | [] ->
          error st src t.T.span (name ^ ": DC needs a value");
          None)
    | t :: tl when uc t = "AC" ->
      if seen_ac then begin
        error st src t.T.span (name ^ ": duplicate AC clause");
        None
      end
      else (
        match tl with
        | v :: tl -> (
          match value_of st src env v with
          | None -> None
          | Some x ->
            (* optional numeric phase argument *)
            let tl =
              match tl with
              | (p : T.t) :: tl'
                when p.T.kind = T.Word
                     && Ape_util.Units.parse_number p.T.text <> None ->
                (match Ape_util.Units.parse_number p.T.text with
                | Some ph when ph <> 0. ->
                  warn st src p.T.span
                    (name ^ ": AC phase is ignored (magnitude only)")
                | Some _ | None -> ());
                tl'
              | _ -> tl
            in
            loop dc x ~seen_dc ~seen_ac:true ~seen_bare tl)
        | [] ->
          error st src t.T.span (name ^ ": AC needs a value");
          None)
    | t :: _ when List.mem (uc t) transient_specs ->
      error st src t.T.span
        (Printf.sprintf "%s: transient source specification %s is not supported"
           name t.T.text);
      None
    | t :: tl ->
      if seen_dc || seen_ac || seen_bare then begin
        error st src t.T.span
          (Printf.sprintf "%s: unexpected trailing value %s after DC/AC clauses"
             name (tok_text t));
        None
      end
      else (
        match value_of st src env t with
        | Some x -> loop x ac ~seen_dc ~seen_ac ~seen_bare:true tl
        | None -> None)
  in
  loop 0. 0. ~seen_dc:false ~seen_ac:false ~seen_bare:false toks

let node_of st src ~map_node (t : T.t) =
  match t.T.kind with
  | T.Word -> Some (map_node t.T.text)
  | T.Braced | T.Equals ->
    error st src t.T.span
      (Printf.sprintf "expected a node name, got %s" (tok_text t));
    None

(* Parse one element card; the parsed element is appended to
   st.elements.  [map_node]/[path] implement hierarchical flattening;
   [stack] is the chain of open subcircuit names for cycle
   detection. *)
let rec parse_element st ~env ~map_node ~path ~stack (stmt : stmt) =
  let src = stmt.src in
  match stmt.toks with
  | ({ T.kind = T.Word; text = name; _ } as t0) :: rest -> (
    let span = card_span stmt.toks in
    let add e = st.elements <- e :: st.elements in
    let node t = node_of st src ~map_node t in
    let fname = flat_name path name in
    match Char.uppercase_ascii name.[0] with
    | 'M' -> (
      let pos, keyed = split_params st src rest in
      match pos with
      | [ d; g; s; b; model ] -> (
        match
          ( node d,
            node g,
            node s,
            node b,
            match model.T.kind with
            | T.Word -> find_model st src model
            | _ ->
              error st src model.T.span "expected a model name";
              None )
        with
        | Some d, Some g, Some s, Some b, Some card -> (
          let w = require_keyed st src env ~span keyed name "W" in
          let l = require_keyed st src env ~span keyed name "L" in
          let m =
            match keyed_value st src env keyed "M" with
            | Some m -> m
            | None -> if List.mem_assoc "M" keyed then Float.nan else 1.
          in
          warn_ignored_keys st src name keyed [ "W"; "L"; "M" ];
          match (w, l) with
          | Some w, Some l when Float.is_finite m -> (
            match Ape_device.Mos.geom ~w ~l with
            | geom -> add (Netlist.Mosfet { name = fname; card; d; g; s; b; geom; m })
            | exception Invalid_argument msg -> error st src span (name ^ ": " ^ msg))
          | _ -> ())
        | _ -> ())
      | _ ->
        error st src span
          (name ^ ": MOSFET needs 'd g s b model' followed by W= L="))
    | ('R' | 'C') as kind -> (
      let pos, keyed = split_params st src rest in
      let key = String.make 1 kind in
      let nodes, v =
        match pos with
        | [ a; b; v ] -> (Some (a, b), value_of st src env v)
        | [ a; b ] -> (
          ( Some (a, b),
            match List.assoc_opt key keyed with
            | Some v -> value_of st src env v
            | None ->
              error st src span (name ^ ": missing value");
              None ))
        | _ ->
          error st src span (name ^ ": expected 'a b value'");
          (None, None)
      in
      warn_ignored_keys st src name keyed [ key ];
      match (nodes, v) with
      | Some (a, b), Some v -> (
        match (node a, node b) with
        | Some a, Some b ->
          if kind = 'R' then add (Netlist.Resistor { name = fname; a; b; r = v })
          else add (Netlist.Capacitor { name = fname; a; b; c = v })
        | _ -> ())
      | _ -> ())
    | ('V' | 'I') as kind -> (
      match rest with
      | p :: n :: values -> (
        match (node p, node n, parse_source_values st src env name values) with
        | Some p, Some n, Some (dc, ac) ->
          if kind = 'V' then add (Netlist.Vsource { name = fname; p; n; dc; ac })
          else add (Netlist.Isource { name = fname; p; n; dc; ac })
        | _ -> ())
      | _ -> error st src span (name ^ ": expected 'p n [values]'"))
    | 'E' -> (
      let pos, _keyed = split_params st src rest in
      match pos with
      | [ p; n; cp; cn; g ] -> (
        match (node p, node n, node cp, node cn, value_of st src env g) with
        | Some p, Some n, Some cp, Some cn, Some gain ->
          add (Netlist.Vcvs { name = fname; p; n; cp; cn; gain })
        | _ -> ())
      | _ -> error st src span (name ^ ": VCVS needs 'p n cp cn gain'"))
    | 'W' -> (
      let pos, keyed = split_params st src rest in
      match pos with
      | [ a; b; ctrl ] -> (
        let get key default =
          match keyed_value st src env keyed key with
          | Some v -> v
          | None -> default
        in
        let ron = get "RON" 1e3 in
        let roff = get "ROFF" 1e12 in
        let vthreshold = get "VT" 2.5 in
        warn_ignored_keys st src name keyed [ "RON"; "ROFF"; "VT" ];
        match (node a, node b, node ctrl) with
        | Some a, Some b, Some ctrl ->
          add (Netlist.Switch { name = fname; a; b; ctrl; ron; roff; vthreshold })
        | _ -> ())
      | _ -> error st src span (name ^ ": switch needs 'a b ctrl'"))
    | 'X' -> (
      let pos, keyed = split_params st src rest in
      let pos =
        List.filter
          (fun (t : T.t) -> String.lowercase_ascii t.T.text <> "params:")
          pos
      in
      match List.rev (positional_words st src pos) with
      | subtok :: rev_nodes ->
        expand_instance st ~env ~map_node ~path ~stack src ~span ~inst:name
          ~subtok
          ~nodes:(List.rev_map (fun (t : T.t) -> t.T.text) rev_nodes)
          ~overrides:keyed
      | [] -> error st src span (name ^ ": expected 'nodes... subckt-name'"))
    | _ ->
      error st src t0.T.span
        (Printf.sprintf "unknown element type '%c' (supported: M R C V I E W X)"
           name.[0]))
  | t0 :: _ ->
    error st src t0.T.span
      (Printf.sprintf "expected an element or directive, got %s" (tok_text t0))
  | [] -> ()

and expand_instance st ~env ~map_node ~path ~stack src ~span ~inst ~subtok
    ~nodes ~overrides =
  let subname = (subtok : T.t).T.text in
  let key = String.lowercase_ascii subname in
  match Hashtbl.find_opt st.subckts key with
  | None -> error st src subtok.T.span ("unknown subcircuit " ^ subname)
  | Some sub ->
    if List.mem key stack then
      error st src subtok.T.span
        ("recursive instantiation of subcircuit " ^ subname)
    else if List.length nodes <> List.length sub.s_ports then
      error st src span
        (Printf.sprintf "%s: subcircuit %s has %d ports, got %d nodes" inst
           sub.s_name (List.length sub.s_ports) (List.length nodes))
    else begin
      (* Instance overrides are evaluated in the caller's environment;
         remaining defaults from the .subckt header are evaluated next
         (earlier defaults are visible to later ones). *)
      let overridden =
        List.filter_map
          (fun (k, v) ->
            match value_of st src env v with
            | Some x -> Some (String.lowercase_ascii k, x)
            | None -> None)
          overrides
      in
      let env' =
        List.fold_left (fun e (k, v) -> SMap.add k v e) env overridden
      in
      let env' =
        List.fold_left
          (fun e (k, v) ->
            if List.mem_assoc k overridden then e
            else
              match value_of st sub.s_src e v with
              | Some x -> SMap.add k x e
              | None -> e)
          env' sub.s_defaults
      in
      let path' = path @ [ inst ] in
      let port_map = List.combine sub.s_ports (List.map map_node nodes) in
      let child_map n =
        if Netlist.is_ground n then Netlist.ground
        else
          match List.assoc_opt n port_map with
          | Some parent -> parent
          | None -> String.concat "." (path' @ [ n ])
      in
      List.iter
        (fun body_stmt ->
          match keyword body_stmt with
          | Some ".model" -> () (* registered globally by the model pass *)
          | Some ".param" ->
            warn st body_stmt.src (card_span body_stmt.toks)
              ".param inside .subckt is ignored (define parameters at top \
               level)"
          | Some kw ->
            warn st body_stmt.src (card_span body_stmt.toks)
              (kw ^ " inside .subckt is ignored")
          | None ->
            parse_element st ~env:env' ~map_node:child_map ~path:path'
              ~stack:(key :: stack) body_stmt)
        sub.s_body
    end

(* ---------- directives & the top-level walk ---------- *)

let ignored_directives =
  [
    ".option"; ".options"; ".temp"; ".global"; ".save"; ".print"; ".plot";
    ".probe"; ".ic"; ".nodeset"; ".width"; ".meas"; ".measure"; ".four";
    ".noise"; ".pz"; ".sens"; ".disto"; ".tf"; ".csparam"; ".func"; ".if";
    ".elseif"; ".else"; ".endif";
  ]

let analysis_directives = [ ".op"; ".ac"; ".dc"; ".tran" ]

let rec run_top st stmts =
  match stmts with
  | [] -> ()
  | stmt :: tl -> (
    match keyword stmt with
    | Some ".end" -> () (* rest of the deck is ignored *)
    | Some ".control" ->
      warn st stmt.src (card_span stmt.toks)
        "interactive .control block is ignored";
      let rec skip = function
        | [] -> []
        | s :: tl when keyword s = Some ".endc" -> tl
        | _ :: tl -> skip tl
      in
      run_top st (skip tl)
    | Some (".param" | ".model") ->
      (* handled by their dedicated passes *)
      run_top st tl
    | Some kw when List.mem kw analysis_directives ->
      st.analyses <-
        {
          d_name = String.sub kw 1 (String.length kw - 1);
          d_args = List.map tok_text (List.tl stmt.toks);
        }
        :: st.analyses;
      run_top st tl
    | Some ".title" ->
      st.title <- String.concat " " (List.map tok_text (List.tl stmt.toks));
      run_top st tl
    | Some kw when List.mem kw ignored_directives ->
      warn st stmt.src (card_span stmt.toks) ("directive " ^ kw ^ " is ignored");
      run_top st tl
    | Some (".ends" | ".endl" | ".endc") ->
      error st stmt.src (card_span stmt.toks)
        (Option.get (keyword stmt) ^ " without a matching opener");
      run_top st tl
    | Some kw ->
      error st stmt.src (card_span stmt.toks) ("unknown directive " ^ kw);
      run_top st tl
    | None ->
      parse_element st ~env:st.params ~map_node:Fun.id ~path:[] ~stack:[] stmt;
      run_top st tl)

(* ---------- entry points ---------- *)

let parse_result ?(process = Proc.c12) ?(dialect = Ngspice) ?path ~title text =
  let st =
    {
      proc = process;
      dialect;
      diags = [];
      models = Hashtbl.create 8;
      subckts = Hashtbl.create 4;
      params = SMap.empty;
      analyses = [];
      elements = [];
      title;
    }
  in
  (* Process cards are visible under their own names and the generic
     NMOS/PMOS; deck-local .MODEL cards override them. *)
  Hashtbl.replace st.models "NMOS" st.proc.Proc.nmos;
  Hashtbl.replace st.models "PMOS" st.proc.Proc.pmos;
  Hashtbl.replace st.models
    (String.uppercase_ascii st.proc.Proc.nmos.Card.name)
    st.proc.Proc.nmos;
  Hashtbl.replace st.models
    (String.uppercase_ascii st.proc.Proc.pmos.Card.name)
    st.proc.Proc.pmos;
  let file = Option.value path ~default:title in
  let dir =
    match path with
    | Some p -> Filename.dirname p
    | None -> Filename.current_dir_name
  in
  let inc_stack = match path with Some p -> [ p ] | None -> [] in
  let stmts = load st ~inc_stack ~file ~dir text in
  let tops = structure st stmts in
  param_pass st tops;
  model_pass st tops;
  run_top st tops;
  let netlist = Netlist.make ~title:st.title (List.rev st.elements) in
  let had_errors = List.exists (fun d -> d.severity = Error) st.diags in
  if not had_errors then begin
    match Netlist.validate netlist with
    | () -> ()
    | exception Netlist.Invalid_netlist msg ->
      st.diags <-
        {
          severity = Error;
          file;
          span = T.span_of ~line:1 ~col:1 ~len:1;
          msg;
          source = None;
        }
        :: st.diags
  end;
  (* Defaults in a .subckt header are re-evaluated per instance, so a
     broken default would be reported once per X-card; keep the first. *)
  let diagnostics =
    let seen = Hashtbl.create 16 in
    List.filter
      (fun d ->
        let key = (d.severity, d.file, d.span, d.msg) in
        if Hashtbl.mem seen key then false
        else begin
          Hashtbl.add seen key ();
          true
        end)
      (List.rev st.diags)
  in
  { netlist; analyses = List.rev st.analyses; diagnostics }

let to_canonical r =
  let base = Netlist.to_spice r.netlist in
  (* Netlist.to_spice always ends with ".END\n"; splice the title and
     the recorded analysis directives in front of it. *)
  let stem =
    let suffix = ".END\n" in
    let bl = String.length base and sl = String.length suffix in
    if bl >= sl && String.sub base (bl - sl) sl = suffix then
      String.sub base 0 (bl - sl)
    else base
  in
  let buf = Buffer.create (String.length base + 128) in
  Buffer.add_string buf stem;
  if r.netlist.Netlist.title <> "" then
    Buffer.add_string buf (".TITLE " ^ r.netlist.Netlist.title ^ "\n");
  List.iter
    (fun d ->
      Buffer.add_string buf ("." ^ String.uppercase_ascii d.d_name);
      if d.d_args <> [] then
        Buffer.add_string buf (" " ^ String.concat " " d.d_args);
      Buffer.add_char buf '\n')
    r.analyses;
  Buffer.add_string buf ".END\n";
  Buffer.contents buf
