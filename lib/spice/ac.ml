module N = Ape_circuit.Netlist
module Sp = Ape_util.Sparse

type solution = { freq : float; x : Complex.t array }
type sweep = { op : Dc.op; points : solution list }

let c_prepare = Ape_obs.counter "ac.prepare"
let c_solve_prepared = Ape_obs.counter "ac.solve_prepared"
let c_sweep_points = Ape_obs.counter "ac.sweep_points"
let c_panels = Ape_obs.counter "ac.panels"
let c_workspaces = Ape_obs.counter "ac.workspaces"

(* Width of the frequency panels blocked sweeps solve at once (width 1
   selects the scalar per-frequency path).  Results are bit-identical
   for every width — the panel kernel keeps lane arithmetic independent
   — so this is purely a throughput setting. *)
let panel_width_state = ref 8
let panel_width () = !panel_width_state

let set_panel_width k =
  if k < 1 then invalid_arg "Ac.set_panel_width";
  panel_width_state := k

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

(* One domain's worth of blocked-sweep scratch: everything a panel (or a
   scalar fallback lane) mutates, cloned off the read-only stamps so
   several domains can work one preparation concurrently.  Contents are
   fully overwritten before every use, so which workspace serves which
   panel can never show up in the results. *)
type workspace = {
  w_vals : Sp.Csplit.t;  (** scalar assembly, for fallback lanes *)
  w_fac : Sp.Csplit.factor;  (** private numeric clone *)
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
  mutable p_ws : (int * workspace) option;
      (** cached (panel width, workspace) for single-domain blocked
          solves; lazily (re)built when the width changes *)
}

let prepare (op : Dc.op) =
  Ape_obs.incr c_prepare;
  let netlist = op.Dc.netlist and index = op.Dc.index in
  let plan = Engine.plan netlist index in
  let pat = Engine.plan_pattern plan in
  let g = Sp.Real.create pat in
  let (_ : float array) =
    Engine.sparse_residual ~gmin:1e-12 plan netlist index op.Dc.x g
  in
  let c = Sp.Real.create pat in
  Engine.sparse_capacitances plan netlist index op.Dc.x c;
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

(* Assemble G + jωC into [vals] and refactor [fac] over its frozen
   pivots.  When the frozen pivots go bad at some frequency (values far
   from the DC basis), fall back to a local fresh pivoting factorisation
   for that point only — [fac] is fully overwritten by the next replay,
   so a sweep's points never depend on the order frequencies are visited
   in. *)
let factor_at p ~vals ~fac freq =
  Sp.Csplit.assemble_gc vals ~g:p.g ~c:p.c ~omega:(2. *. Float.pi *. freq);
  match Sp.Csplit.refactor fac vals with
  | () -> fac
  | exception Sp.Unstable -> Sp.Csplit.factor vals

let solve_in p ~vals ~fac freq =
  { freq; x = Sp.Csplit.solve (factor_at p ~vals ~fac freq) p.rhs }

let solve_prepared p freq =
  Ape_obs.incr c_solve_prepared;
  solve_in p ~vals:p.vals ~fac:p.fac freq

(* ------------------------- blocked path --------------------------- *)

let create_workspace p ~k =
  Ape_obs.incr c_workspaces;
  let pat = Sp.Real.pattern p.g in
  {
    w_vals = Sp.Csplit.create pat;
    w_fac = Sp.Csplit.clone p.fac;
    w_panel = Sp.Csplit.Panel.create pat ~k;
    w_pfac = Sp.Csplit.Panel.prepare p.fac ~k;
  }

(* The cached single-domain workspace (not safe to share across domains;
   parallel sweeps draw from a per-call pool instead). *)
let cached_workspace p ~k =
  match p.p_ws with
  | Some (k', ws) when k' = k -> ws
  | Some _ | None ->
    let ws = create_workspace p ~k in
    p.p_ws <- Some (k, ws);
    ws

(* Solve [freqs.(lo .. lo+len-1)] into the same indices of [dst] using
   one workspace, in panels of the workspace's width; a lane whose
   frozen pivots go bad is re-solved through the exact scalar
   refactor-or-factor-fresh path, so every point is bit-identical to
   [solve_prepared] whatever the panel width. *)
let solve_block p w freqs lo len (dst : solution array) =
  let k = Sp.Csplit.Panel.width w.w_panel in
  let pos = ref lo in
  while !pos < lo + len do
    let m = min k (lo + len - !pos) in
    if m = 1 then begin
      Ape_obs.incr c_solve_prepared;
      dst.(!pos) <- solve_in p ~vals:w.w_vals ~fac:w.w_fac freqs.(!pos)
    end
    else begin
      Ape_obs.incr c_panels;
      Ape_obs.add c_solve_prepared m;
      let omegas =
        Array.init m (fun kk -> 2. *. Float.pi *. freqs.(!pos + kk))
      in
      Sp.Csplit.Panel.assemble_gc w.w_panel ~g:p.g ~c:p.c ~omegas;
      Sp.Csplit.Panel.refactor w.w_pfac w.w_panel;
      let xs = Sp.Csplit.Panel.solve w.w_pfac p.rhs in
      for kk = 0 to m - 1 do
        let i = !pos + kk in
        if Sp.Csplit.Panel.ok w.w_pfac kk then
          dst.(i) <- { freq = freqs.(i); x = xs.(kk) }
        else dst.(i) <- solve_in p ~vals:w.w_vals ~fac:w.w_fac freqs.(i)
      done
    end;
    pos := !pos + m
  done

let dummy_solution = { freq = 0.; x = [||] }

let solve_many p (freqs : float array) =
  let n = Array.length freqs in
  let dst = Array.make n dummy_solution in
  if n > 0 then
    solve_block p (cached_workspace p ~k:(panel_width ())) freqs 0 n dst;
  dst

(* ------------------------- factored systems ----------------------- *)

type system = Sp.Csplit.factor

(* Private assembly and factor clone, so any domain may hold one. *)
let system_at p freq =
  factor_at p
    ~vals:(Sp.Csplit.create (Sp.Real.pattern p.g))
    ~fac:(Sp.Csplit.clone p.fac) freq

let system_solve_transposed = Sp.Csplit.solve_transposed

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

let sweep_prepared ?(jobs = 1) p freqs =
  let jobs = if jobs = 0 then Ape_util.Pool.recommended_jobs () else jobs in
  let freqs = Array.of_list freqs in
  let n = Array.length freqs in
  Ape_obs.add c_sweep_points n;
  let k = panel_width () in
  let dst = Array.make n dummy_solution in
  if jobs <= 1 || n <= k then begin
    if n > 0 then solve_block p (cached_workspace p ~k) freqs 0 n dst
  end
  else begin
    (* Panels are k-aligned index ranges of the grid — fixed by (n, k)
       alone, never by the worker count — and workspace contents are
       fully overwritten per panel, so every [jobs] value produces the
       same bit-identical points.  Workspaces are pooled per call: one
       clone per domain that actually runs, not one per point. *)
    let npanels = (n + k - 1) / k in
    let lock = Mutex.create () in
    let free = ref [] in
    let with_ws f =
      Mutex.lock lock;
      let ws =
        match !free with
        | [] -> None
        | w :: tl ->
          free := tl;
          Some w
      in
      Mutex.unlock lock;
      let ws = match ws with Some w -> w | None -> create_workspace p ~k in
      Fun.protect
        ~finally:(fun () ->
          Mutex.lock lock;
          free := ws :: !free;
          Mutex.unlock lock)
        (fun () -> f ws)
    in
    ignore
      (Ape_util.Pool.map ~jobs npanels (fun pi ->
           let lo = pi * k in
           let len = min k (n - lo) in
           with_ws (fun ws -> solve_block p ws freqs lo len dst)))
  end;
  { op = p.p_op; points = Array.to_list dst }
