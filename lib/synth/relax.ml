module N = Ape_circuit.Netlist
module I = Ape_util.Interval
module Sp = Ape_util.Sparse
module Engine = Ape_spice.Engine
module Awe = Ape_spice.Awe

(* One evaluation's stamp storage: G and C over the index's pattern and
   AWE's moment workspace.  A scratch is owned by one evaluation at a
   time; [t]'s pool hands them out. *)
type scratch = { sg : Sp.Real.t; sc : Sp.Real.t; awe : Awe.workspace }

(* Node names are resolved to engine unknowns once, in [create]:
   [x_engine] and [kcl_penalty] run per candidate and only index. *)
type t = {
  base : N.t;
  index : Engine.index;
  free_slots : int array;  (* engine unknown of each free node *)
  diag_slots : int array;  (* G's diagonal slot of each free node *)
  fixed_slots : int array;  (* engine unknown of each source-pinned node *)
  fixed_values : float array;
  node_ranges : I.t array;
  node_centers : float array;
  rhs : float array;  (* AWE's excitation: candidates keep the sources *)
  lock : Mutex.t;
  mutable pool : scratch list;  (* idle scratches, under [lock] *)
}

let create ?(node_window = 0.25) ~mode ~vdd base =
  let index = Engine.build_index base in
  let fixed_tbl = Hashtbl.create 4 in
  List.iter
    (fun e ->
      match e with
      | N.Vsource { p; n = nn; dc; _ } ->
        if not (N.is_ground p) then Hashtbl.replace fixed_tbl p dc;
        if not (N.is_ground nn) then Hashtbl.replace fixed_tbl nn 0.
      | N.Mosfet _ | N.Resistor _ | N.Capacitor _ | N.Isource _ | N.Vcvs _
      | N.Switch _ ->
        ())
    (N.elements base);
  let free_nodes =
    List.filter (fun n -> not (Hashtbl.mem fixed_tbl n)) (N.nodes base)
  in
  let center =
    match mode with
    | `Wide -> fun _ -> vdd /. 2.
    | `Centered -> (
      match Ape_spice.Dc.solve base with
      | op -> fun node -> Ape_spice.Dc.voltage op node
      | exception Ape_spice.Dc.No_convergence _ -> fun _ -> vdd /. 2.)
  in
  let range node =
    match mode with
    | `Wide -> I.make 0. vdd
    | `Centered ->
      let c = center node in
      I.make
        (Float.max 0. (c -. node_window))
        (Float.min vdd (c +. node_window))
  in
  (* Every node of [base] that is not ground has an unknown. *)
  let slot node = Option.get (Engine.node_id index node) in
  let fixed = Hashtbl.fold (fun k v acc -> (k, v) :: acc) fixed_tbl [] in
  let free_slots = Array.of_list (List.map slot free_nodes) in
  (* gmin stamps every node's diagonal, so the slot exists. *)
  let diag i = Sp.slot (Engine.pattern index) ~row:i ~col:i in
  {
    base;
    index;
    free_slots;
    diag_slots = Array.map diag free_slots;
    fixed_slots = Array.of_list (List.map (fun (node, _) -> slot node) fixed);
    fixed_values = Array.of_list (List.map snd fixed);
    node_ranges = Array.of_list (List.map range free_nodes);
    node_centers = Array.of_list (List.map center free_nodes);
    rhs = Awe.excitation base index;
    lock = Mutex.create ();
    pool = [];
  }

let n_free t = Array.length t.free_slots

let x_engine t node_part =
  let x = Array.make (Engine.size t.index) 0. in
  for k = 0 to n_free t - 1 do
    let r = t.node_ranges.(k) in
    x.(t.free_slots.(k)) <- I.lo r +. (node_part.(k) *. I.width r)
  done;
  for k = 0 to Array.length t.fixed_slots - 1 do
    x.(t.fixed_slots.(k)) <- t.fixed_values.(k)
  done;
  x

let centers_unit t =
  Array.mapi
    (fun k c ->
      let r = t.node_ranges.(k) in
      if I.width r = 0. then 0.5
      else Ape_util.Float_ext.clamp ~lo:0. ~hi:1. ((c -. I.lo r) /. I.width r))
    t.node_centers

type stamp = {
  f : float array;
  g : Sp.Real.t;
  c : Sp.Real.t option;
  scratch : scratch;
}

let borrow t =
  Mutex.lock t.lock;
  let idle =
    match t.pool with
    | s :: rest ->
      t.pool <- rest;
      Some s
    | [] -> None
  in
  Mutex.unlock t.lock;
  match idle with
  | Some s -> s
  | None ->
    let pat = Engine.pattern t.index in
    {
      sg = Sp.Real.create pat;
      sc = Sp.Real.create pat;
      awe = Awe.workspace t.index;
    }

let give_back t s =
  Mutex.lock t.lock;
  t.pool <- s :: t.pool;
  Mutex.unlock t.lock

(* Every slot is cleared and restamped, and the moment workspace is
   overwritten before it is read, so what a scratch held before cannot
   reach the result: the stamp is a pure function of the candidate. *)
let with_stamp ?(caps = false) t netlist x k =
  let s = borrow t in
  let c = if caps then Some s.sc else None in
  match
    let f = Engine.sparse_residual ~gmin:1e-12 ?c netlist t.index x s.sg in
    k { f; g = s.sg; c; scratch = s }
  with
  | v ->
    give_back t s;
    v
  | exception e ->
    give_back t s;
    raise e

let kcl_penalty t { f; g; _ } =
  let sum = ref 0. in
  for k = 0 to Array.length t.free_slots - 1 do
    let gii = Float.abs (Sp.Real.get_slot g t.diag_slots.(k)) in
    sum := !sum +. (Float.abs f.(t.free_slots.(k)) /. Float.max 1e-9 gii)
  done;
  !sum /. float_of_int (max 1 (n_free t)) /. 0.05

let pade t { g; c; scratch; _ } ~out =
  let c =
    match c with
    | Some c -> c
    | None -> invalid_arg "Relax.pade: stamped without ~caps"
  in
  let out =
    match Engine.node_id t.index out with
    | Some i -> i
    | None -> raise (Awe.Moment_failure "output node is ground")
  in
  Awe.of_moments ~q:2 (Awe.moments scratch.awe ~g ~c ~rhs:t.rhs ~out 4)

let node_voltage t x node = Engine.node_voltage t.index x node

let fake_op t netlist x =
  { Ape_spice.Dc.netlist; index = t.index; x; iterations = 0 }
