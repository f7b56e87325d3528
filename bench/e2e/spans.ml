(* Harness spans: one record per timed call into a layer, kept in
   memory while a traced run lasts.  Spans nest on the calling domain;
   a span's parent is the innermost span open when it started. *)

type span = {
  id : int;
  op_id : int;  (** the op the span belongs to; -1 outside the op loop *)
  name : string;
  parent : int;  (** id of the enclosing span, -1 for a root *)
  t0 : float;  (** seconds, monotonic clock *)
  t1 : float;
}

let now = Ape_util.Clock.now_s
let recording = ref false
let finished : span list ref = ref []
let open_ids : int list ref = ref []
let next_id = ref 0
let current_op = ref (-1)

let start () =
  recording := true;
  finished := [];
  open_ids := [];
  next_id := 0;
  current_op := -1

(* Stop recording and return the spans in start order. *)
let stop () =
  recording := false;
  List.sort (fun a b -> compare a.id b.id) !finished

let set_op i = current_op := i

let span name f =
  if not !recording then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !open_ids with p :: _ -> p | [] -> -1 in
    let op_id = !current_op in
    open_ids := id :: !open_ids;
    let t0 = now () in
    Fun.protect
      ~finally:(fun () ->
        let t1 = now () in
        open_ids := List.tl !open_ids;
        finished := { id; op_id; name; parent; t0; t1 } :: !finished)
      f
  end

(* Length of the union of [intervals] clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max lo a and b = Float.min hi b in
        if b > a then Some (a, b) else None)
      intervals
  in
  let sorted = List.sort compare clipped in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) ->
          if a <= cb then (total, Some (ca, Float.max cb b))
          else (total +. (cb -. ca), Some (a, b)))
      (0., None) sorted
  in
  match last with Some (a, b) -> total +. (b -. a) | None -> total

(* Self time of every span: its duration minus the part of it that its
   children cover. *)
let self_times spans =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s -> if s.parent >= 0 then Hashtbl.add children s.parent (s.t0, s.t1))
    spans;
  List.map
    (fun s ->
      let kids = Hashtbl.find_all children s.id in
      (s, s.t1 -. s.t0 -. covered ~lo:s.t0 ~hi:s.t1 kids))
    spans

type row = { name : string; calls : int; total : float; self : float }

(* Per-name totals, in order of first appearance. *)
let summarize spans =
  let rows = Hashtbl.create 16 and order = ref [] in
  List.iter
    (fun ((s : span), self) ->
      match Hashtbl.find_opt rows s.name with
      | Some r ->
        Hashtbl.replace rows s.name
          {
            r with
            calls = r.calls + 1;
            total = r.total +. (s.t1 -. s.t0);
            self = r.self +. self;
          }
      | None ->
        order := s.name :: !order;
        Hashtbl.add rows s.name
          { name = s.name; calls = 1; total = s.t1 -. s.t0; self })
    (self_times spans);
  List.rev_map (Hashtbl.find rows) !order

let to_json spans =
  Json.Arr
    (List.map
       (fun s ->
         Json.Obj
           [
             ("id", Json.Num (float_of_int s.id));
             ("op_id", Json.Num (float_of_int s.op_id));
             ("name", Json.Str s.name);
             ("parent", Json.Num (float_of_int s.parent));
             ("t0", Json.Num s.t0);
             ("t1", Json.Num s.t1);
           ])
       spans)
