module N = Ape_circuit.Netlist

type method_ = Backward_euler | Trapezoidal
type waveform = float -> float

let step ?(t0 = 0.) ?(low = 0.) ~high () t = if t < t0 then low else high

let pulse ?(delay = 0.) ?(rise = 1e-9) ~low ~high ~width ~period () t =
  if t < delay then low
  else begin
    let tau = Float.rem (t -. delay) period in
    if tau < rise then low +. ((high -. low) *. tau /. rise)
    else if tau < rise +. width then high
    else if tau < (2. *. rise) +. width then
      high -. ((high -. low) *. (tau -. rise -. width) /. rise)
    else low
  end

let sine ?(offset = 0.) ~ampl ~freq () t =
  offset +. (ampl *. Float.sin (2. *. Float.pi *. freq *. t))

type result = { times : float array; nodes : (string * float array) list }

exception Step_failed of float

(* Step-acceptance observability: [transient.steps] counts requested
   top-level steps, [transient.solves] every Newton solve attempt
   (including the sub-steps step cutting introduces), and
   [transient.step_cuts] each halving — together they pin the
   controller's accept/retry behaviour for a given deck. *)
let c_steps = Ape_obs.counter "transient.steps"
let c_solves = Ape_obs.counter "transient.solves"
let c_newton_iters = Ape_obs.counter "transient.newton_iters"
let c_step_cuts = Ape_obs.counter "transient.step_cuts"

let max_norm a = Array.fold_left (fun acc v -> Float.max acc (Float.abs v)) 0. a

module Sp = Ape_util.Sparse

(* Newton solve of F(x) + C·(x - x_prev)/h [BE] = 0 at time t, starting
   from a copy of [x_prev].  For trapezoidal the companion term is
   (2C/h)(x - x_prev) - i_prev where i_prev is the capacitor current at
   the previous time point.  [ws] carries the Jacobian values and
   factor across iterations and steps; the first iteration stamps at
   [x_prev] itself, so its device pass also gives C(x_prev), into
   [cvals]. *)
let solve_step ~ws ~cvals ~method_ ~max_newton ~stimulus ~time ~dt netlist
    index ~x_prev ~icap_prev =
  let n = Engine.size index in
  let pattern = Engine.pattern index in
  Ape_obs.incr c_solves;
  let x = Array.copy x_prev in
  let ok = ref false and iter = ref 0 in
  let coeff = match method_ with Backward_euler -> 1. | Trapezoidal -> 2. in
  let gc = coeff /. dt in
  let trap_term row =
    match method_ with
    | Backward_euler -> 0.
    | Trapezoidal -> icap_prev.(row)
  in
  while (not !ok) && !iter < max_newton do
    incr iter;
    let c = if !iter = 1 then Some cvals else None in
    let f =
      Engine.sparse_residual ~gmin:1e-12 ~time ~stimulus ?c netlist index x
        ws.Engine.ws_jac
    in
    (* Capacitor companion: i = gc·C·(x - x_prev) - icap_prev_term.  The
       C slots are a subset of the index's union pattern by
       construction. *)
    Sp.iter pattern (fun s row col ->
        let cv = Sp.Real.get_slot cvals s in
        if cv <> 0. then begin
          f.(row) <- f.(row) +. (gc *. cv *. (x.(col) -. x_prev.(col)));
          Sp.Real.add_slot ws.Engine.ws_jac s (gc *. cv)
        end);
    for row = 0 to n - 1 do
      f.(row) <- f.(row) -. trap_term row
    done;
    match Engine.newton_step ws (Array.map (fun v -> -.v) f) with
    | None -> iter := max_newton
    | Some dx when Array.exists Float.is_nan dx -> iter := max_newton
    | Some dx ->
      Array.iteri
        (fun i d ->
          let d = Ape_util.Float_ext.clamp ~lo:(-1.) ~hi:1. d in
          x.(i) <- x.(i) +. d)
        dx;
      if max_norm dx < 1e-9 then ok := true
  done;
  Ape_obs.add c_newton_iters !iter;
  if not !ok then None
  else begin
    (* Capacitor current at the accepted point (for trapezoidal). *)
    let icap = Array.make n 0. in
    Sp.iter pattern (fun s row col ->
        let cv = Sp.Real.get_slot cvals s in
        if cv <> 0. then
          icap.(row) <- icap.(row) +. (gc *. cv *. (x.(col) -. x_prev.(col))));
    for row = 0 to n - 1 do
      icap.(row) <- icap.(row) -. trap_term row
    done;
    Some (x, icap)
  end

let run ?(method_ = Backward_euler) ?(max_newton = 60) ~stimulus ~tstop ~dt
    (op : Dc.op) =
  if dt <= 0. || tstop <= 0. then invalid_arg "Transient.run: bad times";
  let netlist = op.Dc.netlist and index = op.Dc.index in
  let n = Engine.size index in
  let node_names = N.nodes netlist in
  let n_steps = int_of_float (Float.ceil (tstop /. dt)) in
  let times = Array.make (n_steps + 1) 0. in
  let store =
    List.map (fun name -> (name, Array.make (n_steps + 1) 0.)) node_names
  in
  let record k x =
    List.iter
      (fun (name, arr) -> arr.(k) <- Engine.node_voltage index x name)
      store
  in
  record 0 op.Dc.x;
  let ws = Engine.workspace index in
  let cvals = Sp.Real.create (Engine.pattern index) in
  let x_prev = ref op.Dc.x in
  let icap_prev = ref (Array.make n 0.) in
  for k = 1 to n_steps do
    Ape_obs.incr c_steps;
    let t = float_of_int k *. dt in
    times.(k) <- t;
    (* Step cutting: retry a failing Newton with smaller internal
       sub-steps. *)
    let rec advance ~t_from ~t_to ~depth x_start icap_start =
      match
        solve_step ~ws ~cvals ~method_ ~max_newton ~stimulus ~time:t_to
          ~dt:(t_to -. t_from) netlist index ~x_prev:x_start
          ~icap_prev:icap_start
      with
      | Some step -> step
      | None ->
        Ape_obs.incr c_step_cuts;
        if depth >= 8 then raise (Step_failed t_to);
        let mid = 0.5 *. (t_from +. t_to) in
        let x_mid, icap_mid =
          advance ~t_from ~t_to:mid ~depth:(depth + 1) x_start icap_start
        in
        advance ~t_from:mid ~t_to ~depth:(depth + 1) x_mid icap_mid
    in
    let x, icap = advance ~t_from:(t -. dt) ~t_to:t ~depth:0 !x_prev !icap_prev in
    x_prev := x;
    icap_prev := icap;
    record k x
  done;
  { times; nodes = store }

let samples result name = List.assoc name result.nodes

let value_at result name t =
  let ys = samples result name in
  let ts = result.times in
  let n = Array.length ts in
  if t <= ts.(0) then ys.(0)
  else if t >= ts.(n - 1) then ys.(n - 1)
  else begin
    (* Fixed step: direct index. *)
    let dt = ts.(1) -. ts.(0) in
    let k = int_of_float (t /. dt) in
    let k = min (n - 2) (max 0 k) in
    let frac = (t -. ts.(k)) /. (ts.(k + 1) -. ts.(k)) in
    Ape_util.Float_ext.lerp ys.(k) ys.(k + 1) frac
  end

let max_slope result name =
  let ys = samples result name and ts = result.times in
  let best = ref 0. in
  for k = 0 to Array.length ys - 2 do
    let dt = ts.(k + 1) -. ts.(k) in
    if dt > 0. then
      best := Float.max !best (Float.abs ((ys.(k + 1) -. ys.(k)) /. dt))
  done;
  !best

let crossing_time ?(rising = true) result name ~level =
  let ys = samples result name and ts = result.times in
  let n = Array.length ys in
  let rec find k =
    if k >= n - 1 then None
    else begin
      let a = ys.(k) and b = ys.(k + 1) in
      let crossed =
        if rising then a < level && b >= level else a > level && b <= level
      in
      if crossed then begin
        let frac = (level -. a) /. (b -. a) in
        Some (Ape_util.Float_ext.lerp ts.(k) ts.(k + 1) frac)
      end
      else find (k + 1)
    end
  in
  find 0

let settling_time result name ~final ~band =
  let ys = samples result name and ts = result.times in
  let n = Array.length ys in
  let tol = Float.abs (band *. final) in
  let rec last_violation k worst =
    if k >= n then worst
    else if Float.abs (ys.(k) -. final) > tol then last_violation (k + 1) (Some k)
    else last_violation (k + 1) worst
  in
  match last_violation 0 None with
  | None -> Some ts.(0)
  | Some k -> if k >= n - 1 then None else Some ts.(k + 1)
