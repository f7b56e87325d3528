module N = Ape_circuit.Netlist
module Sp = Ape_util.Sparse

type solution = { freq : float; x : Complex.t array }
type sweep = { op : Dc.op; points : solution list }

let c_prepare = Ape_obs.counter "ac.prepare"
let c_solve_prepared = Ape_obs.counter "ac.solve_prepared"
let c_sweep_points = Ape_obs.counter "ac.sweep_points"
let c_panels = Ape_obs.counter "ac.panels"
let c_workspaces = Ape_obs.counter "ac.workspaces"

(* Width of the frequency panels blocked sweeps solve at once.  Results
   are bit-identical for every width — the panel kernel keeps lane
   arithmetic independent — so this is purely a throughput constant. *)
let panel_width = 8

let complex re im = { Complex.re; im }

(* RHS: AC source magnitudes (constant over frequency). *)
let stamp_rhs (op : Dc.op) =
  let index = op.Dc.index in
  let n = Engine.size index in
  let b = Array.make n Complex.zero in
  List.iter
    (fun e ->
      match e with
      | N.Vsource { name; ac; _ } when ac <> 0. ->
        let br = Engine.branch_id_exn index ~analysis:"ac" name in
        b.(br) <- Complex.add b.(br) (complex ac 0.)
      | N.Isource { p; n = nn; ac; _ } when ac <> 0. ->
        (* AC current leaves p, enters n; the residual convention puts
           source injections on the RHS with opposite sign. *)
        (match Engine.node_id index p with
        | Some i -> b.(i) <- Complex.sub b.(i) (complex ac 0.)
        | None -> ());
        (match Engine.node_id index nn with
        | Some i -> b.(i) <- Complex.add b.(i) (complex ac 0.)
        | None -> ())
      | N.Vsource _ | N.Isource _ | N.Mosfet _ | N.Resistor _
      | N.Capacitor _ | N.Vcvs _ | N.Switch _ ->
        ())
    (N.elements op.Dc.netlist);
  b

(* Blocked-sweep scratch: the panel assembly and factor a panel
   mutates.  Contents are fully overwritten before every use, so a
   workspace's history can never show up in the results. *)
type workspace = {
  w_panel : Sp.Csplit.Panel.vals;
  w_pfac : Sp.Csplit.Panel.pfactor;
}

type prepared = {
  p_op : Dc.op;
  rhs : Complex.t array;  (** AC excitation pattern, read-only *)
  g : Sp.Real.t;  (** conductance slots, read-only after prepare *)
  c : Sp.Real.t;  (** capacitance slots, read-only after prepare *)
  vals : Sp.Csplit.t;  (** G + jωC assembly, overwritten per solve *)
  fac : Sp.Csplit.factor;
      (** symbolic analysis pinned at ω = 0 (the DC Jacobian); numeric
          part refactored per frequency *)
  mutable p_ws : workspace option;
      (** cached workspace for single-domain blocked solves, built
          lazily *)
}

let prepare (op : Dc.op) =
  Ape_obs.incr c_prepare;
  let pat = Engine.pattern op.Dc.index in
  (* G (the DC Jacobian) and C from one device pass. *)
  let g = Sp.Real.create pat and c = Sp.Real.create pat in
  let (_ : float array) =
    Engine.sparse_residual ~c op.Dc.netlist op.Dc.index op.Dc.x g
  in
  let vals = Sp.Csplit.create pat in
  (* Pivot order fixed at ω = 0, i.e. on the DC Jacobian alone —
     nonsingular by construction (the operating point converged) and
     the most stable basis for the low-frequency end of a sweep.  Every
     per-frequency solve is then a numeric refactorisation. *)
  Sp.Csplit.assemble_gc vals ~g ~c ~omega:0.;
  let fac = Sp.Csplit.factor vals in
  { p_op = op; rhs = stamp_rhs op; g; c; vals; fac; p_ws = None }

let op p = p.p_op

(* Same G, C, pivots and workspaces; only the RHS is re-stamped. *)
let excite p netlist =
  let op = { p.p_op with Dc.netlist } in
  { p with p_op = op; rhs = stamp_rhs op }

(* Assemble G + jωC into [p.vals] and refactor [p.fac] over its frozen
   pivots.  When the frozen pivots go bad at some frequency (values far
   from the DC basis), fall back to a local fresh pivoting factorisation
   for that point only — [p.fac] is fully overwritten by the next
   replay, so a sweep's points never depend on the order frequencies
   are visited in. *)
let factor_at p freq =
  Sp.Csplit.assemble_gc p.vals ~g:p.g ~c:p.c ~omega:(2. *. Float.pi *. freq);
  match Sp.Csplit.refactor p.fac p.vals with
  | () -> p.fac
  | exception Sp.Unstable -> Sp.Csplit.factor p.vals

let solve_at p freq = Sp.Csplit.solve (factor_at p freq) p.rhs

let solve_prepared p freq =
  Ape_obs.incr c_solve_prepared;
  { freq; x = solve_at p freq }

(* ------------------------- blocked path --------------------------- *)

(* The cached single-domain workspace, built on first use (not safe to
   share across domains). *)
let cached_workspace p =
  match p.p_ws with
  | Some ws -> ws
  | None ->
    Ape_obs.incr c_workspaces;
    let pat = Sp.Real.pattern p.g in
    let ws =
      {
        w_panel = Sp.Csplit.Panel.create pat ~k:panel_width;
        w_pfac = Sp.Csplit.Panel.prepare p.fac ~k:panel_width;
      }
    in
    p.p_ws <- Some ws;
    ws

(* The one panel walker: every frequency of [freqs] in panels of the
   panel width on the cached workspace, each panel assembled, refactored
   and handed to [panel]; a 1-lane remainder and every lane whose frozen
   pivots go bad take [scalar], the exact refactor-or-factor-fresh path
   of [factor_at], so every result is bit-identical to [scalar] whatever
   the width.  [count m] records m lanes; the workspace is fetched only
   for a panel of two lanes or more, so a single frequency runs the
   scalar path alone. *)
let walk_panels p (freqs : float array) ~count ~panel ~scalar =
  let n = Array.length freqs in
  let dst = Array.make n [||] in
  let pos = ref 0 in
  while !pos < n do
    let m = min panel_width (n - !pos) in
    if m = 1 then begin
      count 1;
      dst.(!pos) <- scalar freqs.(!pos)
    end
    else begin
      let w = cached_workspace p in
      Ape_obs.incr c_panels;
      count m;
      let omegas =
        Array.init m (fun kk -> 2. *. Float.pi *. freqs.(!pos + kk))
      in
      Sp.Csplit.Panel.assemble_gc w.w_panel ~g:p.g ~c:p.c ~omegas;
      Sp.Csplit.Panel.refactor w.w_pfac w.w_panel;
      let xs = panel w.w_pfac in
      for kk = 0 to m - 1 do
        let i = !pos + kk in
        dst.(i) <-
          (if Sp.Csplit.Panel.ok w.w_pfac kk then xs.(kk) else scalar freqs.(i))
      done
    end;
    pos := !pos + m
  done;
  dst

let solve_many p freqs =
  let xs =
    walk_panels p freqs ~count:(Ape_obs.add c_solve_prepared)
      ~panel:(fun pf -> Sp.Csplit.Panel.solve pf p.rhs)
      ~scalar:(solve_at p)
  in
  Array.mapi (fun i x -> { freq = freqs.(i); x }) xs

let solve_transposed_many p freqs b =
  walk_panels p freqs ~count:ignore
    ~panel:(fun pf -> Sp.Csplit.Panel.solve_transposed pf b)
    ~scalar:(fun f -> Sp.Csplit.solve_transposed (factor_at p f) b)

let voltage_prepared p solution node =
  match Engine.node_id p.p_op.Dc.index node with
  | None -> Complex.zero
  | Some i -> solution.x.(i)

let sweep_frequencies ?(points_per_decade = 10) ~fstart ~fstop () =
  if fstart <= 0. || fstop <= fstart then invalid_arg "Ac.sweep: bad range";
  let decades = Float.log10 (fstop /. fstart) in
  let n =
    max 2 (1 + int_of_float (Float.ceil (decades *. float_of_int points_per_decade)))
  in
  Ape_util.Float_ext.logspace fstart fstop n

let sweep_prepared p freqs =
  let freqs = Array.of_list freqs in
  Ape_obs.add c_sweep_points (Array.length freqs);
  { op = p.p_op; points = Array.to_list (solve_many p freqs) }
