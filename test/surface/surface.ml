(* The library's export check.  Every value that a [lib/*/*.mli] exports
   must have a production caller outside its own module, and every
   optional label on it a production setter (the module's own calls
   count for labels), unless the allowlist names it with a reason.

   Production is every [.cmt] under [lib], [bin], [bench] and
   [examples]; tests are those under [test].  A use is a [Texp_ident]
   whose declaration location is the [.mli] line of the export, so an
   alias or an [open] at the call site cannot hide it.  Run from the
   repository root after [dune build @check], which writes the
   executables' [.cmt] files:

     dune exec test/surface/surface.exe

   It fails on an export or label that production does not use and
   [test/surface/allowlist] does not name, and on a listed entry that
   production now uses, that nothing calls at all or that no longer
   exists, so the list can only shrink. *)

open Typedtree

let reasons =
  [ "pending-item-2"; "pending-item-4"; "pending-item-5"; "oracle";
    "test-entry"; "design-space" ]

type export = {
  name : string;  (* Ape_util.Sparse.Csplit.solve *)
  labels : string list;  (* its optional labels *)
  mutable prod : bool;  (* called by production outside its module *)
  mutable test : bool;  (* called by a test *)
  mutable set : (string * bool) list;  (* label set, by tests only? *)
}

(* A declaration or definition site: file and start offset. *)
let key (loc : Location.t) = (loc.loc_start.pos_fname, loc.loc_start.pos_cnum)

(* Exports by their [.mli] site, by the [.ml] site that defines them,
   and by name. *)
let declared : (string * int, export) Hashtbl.t = Hashtbl.create 1024
let defined : (string * int, export) Hashtbl.t = Hashtbl.create 1024
let by_name : (string, export) Hashtbl.t = Hashtbl.create 1024

let rec optional_labels ty =
  match Types.get_desc ty with
  | Types.Tarrow (Optional l, _, ret, _) -> l :: optional_labels ret
  | Types.Tarrow (_, _, ret, _) -> optional_labels ret
  | _ -> []

let rec read_sig prefix sg =
  List.iter
    (fun item ->
      match item.sig_desc with
      | Tsig_value vd ->
        let name = prefix ^ "." ^ vd.val_name.txt in
        let e =
          { name; labels = optional_labels vd.val_val.val_type; prod = false;
            test = false; set = [] }
        in
        Hashtbl.replace declared (key vd.val_val.val_loc) e;
        Hashtbl.replace by_name name e
      | Tsig_module { md_name = { txt = Some m; _ }; md_type; _ } -> (
        match md_type.mty_desc with
        | Tmty_signature sg -> read_sig (prefix ^ "." ^ m) sg
        | _ -> ())
      | _ -> ())
    sg.sig_items

(* The [.ml]'s top-level definitions, nested structures included. *)
let rec read_defs prefix str =
  List.iter
    (fun item ->
      match item.str_desc with
      | Tstr_value (_, vbs) ->
        List.iter
          (fun vb ->
            match vb.vb_pat.pat_desc with
            | Tpat_var (_, { txt; _ }) ->
              Option.iter
                (Hashtbl.replace defined (key vb.vb_pat.pat_loc))
                (Hashtbl.find_opt by_name (prefix ^ "." ^ txt))
            | _ -> ())
          vbs
      | Tstr_module { mb_name = { txt = Some m; _ }; mb_expr; _ } -> (
        match mb_expr.mod_desc with
        | Tmod_structure str | Tmod_constraint ({ mod_desc = Tmod_structure str; _ }, _, _, _) ->
          read_defs (prefix ^ "." ^ m) str
        | _ -> ())
      | _ -> ())
    str.str_items

(* [Ape_util__Sparse] -> [Ape_util.Sparse]; [Ape_obs] stays. *)
let module_path modname =
  let n = String.length modname in
  let rec go i =
    if i + 1 >= n then modname
    else if modname.[i] = '_' && modname.[i + 1] = '_' then
      String.sub modname 0 i ^ "." ^ String.sub modname (i + 2) (n - i - 2)
    else go (i + 1)
  in
  go 0

(* An optional argument the caller left out: the typer's ghost [None]. *)
let omitted (e : expression) =
  match e.exp_desc with
  | Texp_construct (_, { cstr_name = "None"; _ }, []) -> e.exp_loc.loc_ghost
  | _ -> false

(* Record one compilation unit's calls and the labels they set.  A call
   from outside an export's module names its [.mli] site, and only
   those count as callers; a call from inside names its [.ml] site, and
   sets labels too. *)
let read_uses ~prod str =
  let expr it (ex : expression) =
    (match ex.exp_desc with
    | Texp_ident (_, _, vd) -> (
      match Hashtbl.find_opt declared (key vd.val_loc) with
      | Some e -> if prod then e.prod <- true else e.test <- true
      | None -> ())
    | Texp_apply ({ exp_desc = Texp_ident (_, _, vd); _ }, args) -> (
      let site = key vd.val_loc in
      match Hashtbl.find_opt declared site with
      | Some _ as e -> e
      | None -> Hashtbl.find_opt defined site)
      |> Option.iter (fun e ->
             List.iter
               (function
                 | Asttypes.Optional l, Some a when not (omitted a) ->
                   let test_only =
                     (not prod)
                     && Option.value ~default:true (List.assoc_opt l e.set)
                   in
                   e.set <- (l, test_only) :: List.remove_assoc l e.set
                 | _ -> ())
               args)
    | _ -> ());
    Tast_iterator.default_iterator.expr it ex
  in
  let it = { Tast_iterator.default_iterator with expr } in
  it.structure it str

let rec files dir =
  if Sys.is_directory dir then
    Array.to_list (Sys.readdir dir)
    |> List.concat_map (fun f -> files (Filename.concat dir f))
  else [ dir ]

let units build sub ext =
  files (Filename.concat build sub)
  |> List.filter (fun f -> Filename.check_suffix f ext)
  |> List.sort compare
  |> List.map Cmt_format.read_cmt

(* One line: [Lib.Module.value[ ?label] REASON[ note]]; [#] comments. *)
let read_allowlist path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter_map (fun line ->
         match List.filter (( <> ) "") (String.split_on_char ' ' line) with
         | [] -> None
         | w :: _ when w.[0] = '#' -> None
         | name :: l :: reason :: _ when l.[0] = '?' -> Some (name ^ " " ^ l, reason)
         | name :: reason :: _ -> Some (name, reason)
         | [ w ] -> failwith ("allowlist: no reason for " ^ w))

(* Both relative to the repository root. *)
let build = "_build/default"
let allow = "test/surface/allowlist"

let () =
  List.iter
    (fun (c : Cmt_format.cmt_infos) ->
      match c.cmt_annots with
      | Interface sg -> read_sig (module_path c.cmt_modname) sg
      | _ -> ())
    (units build "lib" ".cmti");
  let impls =
    List.concat_map
      (fun d -> List.map (fun c -> (d <> "test", c)) (units build d ".cmt"))
      [ "lib"; "bin"; "bench"; "examples"; "test" ]
  in
  List.iter
    (fun (_, (c : Cmt_format.cmt_infos)) ->
      match (c.cmt_annots, c.cmt_sourcefile) with
      | Implementation str, Some file when String.starts_with ~prefix:"lib/" file ->
        read_defs (module_path c.cmt_modname) str
      | _ -> ())
    impls;
  List.iter
    (fun (prod, (c : Cmt_format.cmt_infos)) ->
      match c.cmt_annots with
      | Implementation str -> read_uses ~prod str
      | _ -> ())
    impls;
  let all =
    List.sort compare (Hashtbl.fold (fun name _ acc -> name :: acc) by_name [])
    |> List.map (Hashtbl.find by_name)
  in
  (* Every export and label that production leaves unused, with who
     does use it. *)
  let idle =
    List.concat_map
      (fun e ->
        (if e.prod then []
         else [ (e.name, if e.test then "tests" else "nobody") ])
        @ List.filter_map
            (fun l ->
              match List.assoc_opt l e.set with
              | Some false -> None
              | Some true -> Some (e.name ^ " ?" ^ l, "tests")
              | None -> Some (e.name ^ " ?" ^ l, "nobody"))
            e.labels)
      all
  in
  let values, labels = List.partition (fun (n, _) -> not (String.contains n '?')) idle in
  let nobody l = List.length (List.filter (fun (_, w) -> w = "nobody") l) in
  Printf.printf
    "exports: %d values, %d without a production caller (%d used by nobody \
     outside their module); %d optional labels, %d without a production \
     setter (%d set by nobody)\n"
    (List.length all) (List.length values) (nobody values)
    (List.fold_left (fun n e -> n + List.length e.labels) 0 all)
    (List.length labels) (nobody labels);
  let listed = read_allowlist allow in
  let failures = ref 0 in
  let fail fmt =
    incr failures;
    Printf.printf (fmt ^^ "\n")
  in
  List.iter
    (fun (n, _) ->
      if not (List.mem_assoc n listed) then
        fail "FAIL: production does not use %s, and %s does not list it" n allow)
    idle;
  List.iter
    (fun (n, reason) ->
      let exists =
        match String.split_on_char ' ' n with
        | [ v ] -> Hashtbl.mem by_name v
        | [ v; l ] -> (
          match Hashtbl.find_opt by_name v with
          | Some e -> List.mem (String.sub l 1 (String.length l - 1)) e.labels
          | None -> false)
        | _ -> false
      in
      if not (List.mem reason reasons) then
        fail "FAIL: %s: unknown reason %S" n reason
      else if not exists then
        fail "FAIL: %s is listed but no longer exists: remove its line" n
      else
        match List.assoc_opt n idle with
        | None -> fail "FAIL: %s is listed but production uses it: remove its line" n
        | Some "nobody" when not (String.contains n '?') ->
          fail "FAIL: %s is listed but nothing outside its module calls it: \
                delete it or make it private" n
        | Some _ -> ())
    listed;
  if !failures > 0 then exit 1;
  Printf.printf "surface OK: %d listed exports and labels\n" (List.length listed)
