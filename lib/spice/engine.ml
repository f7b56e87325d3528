module N = Ape_circuit.Netlist
module Mos = Ape_device.Mos
module Sp = Ape_util.Sparse

(* An element's unknowns, resolved once when the index is built: node
   terminals as unknown numbers (-1 for ground) plus the branch unknown
   of a V-source/VCVS.  Stamps read values from the netlist element and
   positions from here, so they never look a name up. *)
type terminals =
  | T_resistor of { a : int; b : int }
  | T_capacitor of { a : int; b : int }
  | T_switch of { a : int; b : int; ctrl : int }
  | T_isource of { p : int; n : int }
  | T_vsource of { p : int; n : int; br : int }
  | T_vcvs of { p : int; n : int; cp : int; cn : int; br : int }
  | T_mosfet of { d : int; g : int; s : int; b : int }

type index = {
  node_ids : (string, int) Hashtbl.t;
  branch_ids : (string, int) Hashtbl.t;
  n_nodes : int;
  total : int;
  resolved : (string * terminals) array;  (* element name, unknowns *)
  pattern : Sp.pattern;  (* union of the Jacobian and C stamps *)
  jac_slots : int array;  (* slot of the k-th Jacobian [add] call *)
  cap_slots : int array;  (* slot of the k-th C [add] call *)
}

exception
  Engine_error of { analysis : string; node : string option; detail : string }

let engine_error ~analysis ?node detail =
  raise (Engine_error { analysis; node; detail })

type stimulus = (string * (float -> float)) list

let mismatch ?node detail = engine_error ~analysis:"mna" ?node detail

(* Pair every netlist element with its resolved unknowns, in order.  The
   index may serve another netlist than the one it was built from (a
   relaxed candidate with new element values), but only one with the
   same elements: a count or name that differs raises, and so does a
   kind ([f]'s catch-all case). *)
let iter_resolved resolved netlist f =
  let n = Array.length resolved in
  let k =
    List.fold_left
      (fun k e ->
        let name = N.element_name e in
        if k >= n then
          mismatch ~node:name
            (Printf.sprintf "netlist has more elements than its index (%d)" n);
        let expected, t = resolved.(k) in
        if not (String.equal name expected) then
          mismatch ~node:name
            (Printf.sprintf "element %d does not match its index (expected %s)"
               k expected);
        f e t;
        k + 1)
      0 (N.elements netlist)
  in
  if k <> n then
    mismatch (Printf.sprintf "netlist has %d elements, its index %d" k n)

let kind_mismatch e =
  mismatch ~node:(N.element_name e) "element kind differs from its index"

let volt x i = if i < 0 then 0. else x.(i)

(* Accumulate [v] into residual slot [i] (ground rows are dropped). *)
let add_residual f i v = if i >= 0 then f.(i) <- f.(i) +. v

let source_value ~time ~stimulus ~name ~dc =
  match stimulus with
  | [] -> dc
  | list -> (
    match List.assoc_opt name list with
    | Some wave -> wave time
    | None -> dc)

(* [add r c v] unless [r] or [c] is ground.  A top-level function, not
   a closure over [add], so a stamp allocates none per call. *)
let add_at (add : int -> int -> float -> unit) r c v =
  if r >= 0 && c >= 0 then add r c v

(* The four entries of a conductance or capacitance [value] between [a]
   and [b], in the order every stamp adds them. *)
let pair_stamp add a b value =
  add_at add a a value;
  add_at add a b (-.value);
  add_at add b a (-.value);
  add_at add b b value

(* The one stamping core, parameterised on its sinks: the sparse
   stamps pass slot-cursor writers, and [build_index] coordinate
   recorders.  The [add] and [cap] call sequences are deterministic and
   independent of [x], [gmin], [source_scale], [stimulus] and every
   element value — every element stamps the same positions in the same
   order whatever its state (the Switch stamps both branches
   identically) — which is what lets the slots one recording pass finds
   serve every later evaluation.

   [cap], when given, receives the C stamps of the same pass, with each
   MOSFET's capacitances taken at the region of the one evaluation that
   also gives its current and partials.  Without it (the Newton loops)
   the pass does no capacitance work at all. *)
let stamp_core ?cap ~gmin ~source_scale ~time ~stimulus ~n_nodes resolved
    netlist x ~(add : int -> int -> float -> unit) f =
  (* gmin from every node to ground. *)
  for i = 0 to n_nodes - 1 do
    f.(i) <- f.(i) +. (gmin *. x.(i));
    add i i gmin
  done;
  let conductance_stamp a b g =
    let i = g *. (volt x a -. volt x b) in
    add_residual f a i;
    add_residual f b (-.i);
    pair_stamp add a b g
  in
  (* Branch current [br] leaves [p] and enters [n]. *)
  let branch_stamp p nn br =
    let ibr = x.(br) in
    add_residual f p ibr;
    add_residual f nn (-.ibr);
    add_at add p br 1.;
    add_at add nn br (-1.);
    add_at add br p 1.;
    add_at add br nn (-1.)
  in
  iter_resolved resolved netlist (fun e t ->
      match (e, t) with
      | N.Resistor { r; _ }, T_resistor { a; b } ->
        conductance_stamp a b (1. /. r)
      | N.Capacitor { c = value; _ }, T_capacitor { a; b } -> (
        (* Open in DC; transient adds companions. *)
        match cap with None -> () | Some add_c -> pair_stamp add_c a b value)
      | N.Switch { ron; roff; vthreshold; _ }, T_switch { a; b; ctrl } ->
        let g = if volt x ctrl > vthreshold then 1. /. ron else 1. /. roff in
        conductance_stamp a b g
      | N.Isource { name; dc; _ }, T_isource { p; n = nn } ->
        let value = source_scale *. source_value ~time ~stimulus ~name ~dc in
        (* Current flows from p through the source to n: leaves p. *)
        add_residual f p value;
        add_residual f nn (-.value)
      | N.Vsource { name; dc; _ }, T_vsource { p; n = nn; br } ->
        let value = source_scale *. source_value ~time ~stimulus ~name ~dc in
        branch_stamp p nn br;
        f.(br) <- volt x p -. volt x nn -. value
      | N.Vcvs { gain; _ }, T_vcvs { p; n = nn; cp; cn; br } ->
        branch_stamp p nn br;
        f.(br) <-
          volt x p -. volt x nn -. (gain *. (volt x cp -. volt x cn));
        add_at add br cp (-.gain);
        add_at add br cn gain
      | N.Mosfet { card; geom; m; _ }, T_mosfet { d; g; s; b } ->
        (* M= parallel devices behave as one device of width m·W under
           the width-proportional current and capacitance models. *)
        let geom = { geom with Mos.w = geom.Mos.w *. m } in
        let vs = volt x s in
        let vds = volt x d -. vs and vsb = vs -. volt x b in
        let e = Mos.evaluate card geom ~vgs:(volt x g -. vs) ~vds ~vsb in
        (* Terminal conductances: vgs, vds and vsb all move with the
           source, so its entry balances the other three. *)
        let gd = e.Mos.di_dvds
        and gg = e.Mos.di_dvgs
        and gb = -.e.Mos.di_dvsb in
        let gs = -.(gd +. gg +. gb) in
        (* Drain current enters the drain terminal: leaves node d,
           re-enters the circuit at the source node. *)
        add_residual f d e.Mos.ids;
        add_residual f s (-.e.Mos.ids);
        add_at add d d gd;
        add_at add d g gg;
        add_at add d s gs;
        add_at add d b gb;
        add_at add s d (-.gd);
        add_at add s g (-.gg);
        add_at add s s (-.gs);
        add_at add s b (-.gb);
        (match cap with
        | None -> ()
        | Some add_c ->
          (* The bias [Mos.small_signal] hands [Mos.capacitances]. *)
          let p = Ape_process.Model_card.polarity card in
          let cgs, cgd, cgb, cdb, csb =
            Mos.capacitances card geom ~region:e.Mos.region
              ~vdb:(p *. (vds +. vsb)) ~vsb:(p *. vsb)
          in
          pair_stamp add_c g s cgs;
          pair_stamp add_c g d cgd;
          pair_stamp add_c g b cgb;
          pair_stamp add_c d b cdb;
          pair_stamp add_c s b csb)
      | ( ( N.Resistor _ | N.Capacitor _ | N.Switch _ | N.Isource _
          | N.Vsource _ | N.Vcvs _ | N.Mosfet _ ),
          _ ) ->
        kind_mismatch e)

let c_plans = Ape_obs.counter "engine.plans"

let build_index netlist =
  Ape_obs.incr c_plans;
  let node_ids = Hashtbl.create 16 in
  List.iteri
    (fun i n -> Hashtbl.replace node_ids n i)
    (N.nodes netlist);
  let n_nodes = Hashtbl.length node_ids in
  let branch_ids = Hashtbl.create 4 in
  let next = ref n_nodes in
  let node n = if N.is_ground n then -1 else Hashtbl.find node_ids n in
  let branch name =
    let br = !next in
    Hashtbl.replace branch_ids name br;
    incr next;
    br
  in
  let resolve = function
    | N.Resistor { a; b; _ } -> T_resistor { a = node a; b = node b }
    | N.Capacitor { a; b; _ } -> T_capacitor { a = node a; b = node b }
    | N.Switch { a; b; ctrl; _ } ->
      T_switch { a = node a; b = node b; ctrl = node ctrl }
    | N.Isource { p; n; _ } -> T_isource { p = node p; n = node n }
    | N.Vsource { name; p; n; _ } ->
      T_vsource { p = node p; n = node n; br = branch name }
    | N.Vcvs { name; p; n; cp; cn; _ } ->
      T_vcvs
        { p = node p; n = node n; cp = node cp; cn = node cn; br = branch name }
    | N.Mosfet { d; g; s; b; _ } ->
      T_mosfet { d = node d; g = node g; s = node s; b = node b }
  in
  let resolved =
    Array.of_list
      (List.map (fun e -> (N.element_name e, resolve e)) (N.elements netlist))
  in
  let total = !next in
  (* One recording pass at x = 0 with both sinks: the pattern is the
     union of the Jacobian and C positions (so one symbolic
     factorisation serves DC, AC and transient), and the slot arrays
     replay the two call sequences. *)
  let b = Sp.Builder.create total in
  let jac = ref [] and cap = ref [] in
  let record coords r c _ =
    Sp.Builder.add b r c;
    coords := (r, c) :: !coords
  in
  let x0 = Array.make total 0. in
  stamp_core ~gmin:1e-12 ~source_scale:1. ~time:0. ~stimulus:[] ~n_nodes
    resolved netlist x0 ~add:(record jac) ~cap:(record cap)
    (Array.make total 0.);
  let pattern = Sp.Builder.compile b in
  let slots coords =
    List.rev_map (fun (r, c) -> Sp.slot pattern ~row:r ~col:c) coords
    |> Array.of_list
  in
  {
    node_ids;
    branch_ids;
    n_nodes;
    total;
    resolved;
    pattern;
    jac_slots = slots !jac;
    cap_slots = slots !cap;
  }

let size idx = idx.total
let n_nodes idx = idx.n_nodes

let node_id idx n =
  if N.is_ground n then None else Hashtbl.find_opt idx.node_ids n

let branch_id idx name = Hashtbl.find_opt idx.branch_ids name

let branch_id_exn idx ~analysis name =
  match Hashtbl.find_opt idx.branch_ids name with
  | Some i -> i
  | None ->
    engine_error ~analysis ~node:name
      "no branch-current unknown for this element (index built from a \
       different netlist?)"

let node_voltage idx x n =
  match node_id idx n with
  | None -> 0.
  | Some i -> x.(i)

let pattern idx = idx.pattern

(* A sink that adds the k-th call's value to the k-th recorded slot of
   [vals] (cleared first): a cursor replay, no lookups. *)
let slot_sink idx slots vals =
  if Sp.Real.pattern vals != idx.pattern then
    invalid_arg "Engine.sparse_residual: pattern mismatch";
  Sp.Real.clear vals;
  let cursor = ref 0 in
  fun _ _ v ->
    Sp.Real.add_slot vals slots.(!cursor) v;
    incr cursor

let sparse_residual ?(gmin = 1e-12) ?(source_scale = 1.) ?(time = 0.)
    ?(stimulus = []) ?c netlist idx x vals =
  let add = slot_sink idx idx.jac_slots vals in
  let cap = Option.map (slot_sink idx idx.cap_slots) c in
  let f = Array.make idx.total 0. in
  stamp_core ?cap ~gmin ~source_scale ~time ~stimulus ~n_nodes:idx.n_nodes
    idx.resolved netlist x ~add f;
  f

(* The Newton linear solve shared by the DC and transient loops.  The
   factor's symbolic analysis (pivot order) is done on the first step
   and replayed numerically on every later one — across Newton
   iterations, gmin/source-stepping stages and time steps alike, since
   the pattern never changes.  [ws_fac] drops back to [None] when a
   replay goes unstable, so the next step re-pivots. *)
type workspace = {
  ws_jac : Sp.Real.t;
  mutable ws_fac : Sp.Real.factor option;
}

let workspace idx = { ws_jac = Sp.Real.create idx.pattern; ws_fac = None }

let newton_step ws rhs =
  let fresh () =
    match Sp.Real.factor ws.ws_jac with
    | exception Sp.Singular -> None
    | fac ->
      ws.ws_fac <- Some fac;
      Some (Sp.Real.solve fac rhs)
  in
  match ws.ws_fac with
  | None -> fresh ()
  | Some fac -> (
    match Sp.Real.refactor fac ws.ws_jac with
    | () -> Some (Sp.Real.solve fac rhs)
    | exception (Sp.Unstable | Sp.Singular) ->
      ws.ws_fac <- None;
      fresh ())

let mosfet_small_signal netlist idx x =
  List.filter_map
    (fun e ->
      match e with
      | N.Mosfet { name; card; d; g; s; b; geom; m; _ } ->
        let geom = { geom with Mos.w = geom.Mos.w *. m } in
        let vd = node_voltage idx x d
        and vg = node_voltage idx x g
        and vs = node_voltage idx x s
        and vb = node_voltage idx x b in
        Some
          ( name,
            Mos.small_signal card geom ~vgs:(vg -. vs) ~vds:(vd -. vs)
              ~vsb:(vs -. vb) )
      | N.Resistor _ | N.Capacitor _ | N.Vsource _ | N.Isource _ | N.Vcvs _
      | N.Switch _ ->
        None)
    (N.elements netlist)
