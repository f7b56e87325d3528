(* All searches are expressed against a prepared AC engine so that one
   netlist stamping serves every solve. *)

module Prepared = struct
  let solution ~out p freq =
    Ac.voltage_prepared p (Ac.solve_prepared p freq) out

  let dc_gain ~out p = Complex.norm (solution ~out p 0.)
  let gain_at ~out p freq = Complex.norm (solution ~out p freq)

  let phase_at ~out p freq =
    Complex.arg (solution ~out p freq) *. 180. /. Float.pi

  let dc_gain_signed ~out p =
    (* At ω → 0 the AC system is real, so the output phasor is real up
       to a ±0 imaginary part: the sign of the gain is the sign of its
       real part.  (Probing the phase at a fixed nonzero frequency, as
       this function once did, misreads circuits whose poles sit below
       the probe frequency.) *)
    let v = solution ~out p 0. in
    if v.Complex.re < 0. then -.Complex.norm v else Complex.norm v

  (* Gains of a frequency grid, evaluated lazily in panel-width blocks:
     the scan below usually brackets its crossing early, so whole-grid
     evaluation would waste solves, but per-point evaluation would waste
     the blocked sparse kernel.  Values are bit-identical to per-point
     [gain_at] — [Ac.solve_many] guarantees it. *)
  let blocked_gains ~out p (grid : float array) =
    let npts = Array.length grid in
    let k = Ac.panel_width in
    let gains = Array.make npts Float.nan in
    let have = ref 0 in
    fun i ->
      while !have <= i do
        let lo = !have in
        let m = min k (npts - lo) in
        let sols = Ac.solve_many p (Array.sub grid lo m) in
        Array.iteri
          (fun kk s ->
            gains.(lo + kk) <- Complex.norm (Ac.voltage_prepared p s out))
          sols;
        have := lo + m
      done;
      gains.(i)

  (* Find the lowest crossing of |H(f)| = level by scanning a log grid
     for a bracket and refining with Brent in log-frequency. *)
  let find_crossing ~fmin ~fmax ~level ~out p =
    let n = max 8 (int_of_float (8. *. Float.log10 (fmax /. fmin))) in
    let grid = Array.of_list (Ape_util.Float_ext.logspace fmin fmax n) in
    let npts = Array.length grid in
    let gain = blocked_gains ~out p grid in
    let g i = gain i -. level in
    let rec scan i =
      if i >= npts - 1 then
        if npts > 0 && g (npts - 1) = 0. then Some grid.(npts - 1) else None
      else begin
        let ga = g i and gb = g (i + 1) in
        if ga = 0. then Some grid.(i)
        else if ga *. gb < 0. then begin
          let h lf = gain_at ~out p (10. ** lf) -. level in
          let lf =
            Ape_util.Rootfind.brent ~tol:1e-9 h
              (Float.log10 grid.(i))
              (Float.log10 grid.(i + 1))
          in
          Some (10. ** lf)
        end
        else scan (i + 1)
      end
    in
    scan 0

  let unity_gain_frequency ?(fmin = 1.) ?(fmax = 1e10) ~out p =
    find_crossing ~fmin ~fmax ~level:1. ~out p

  let f_minus_3db ?(fmin = 1.) ?(fmax = 1e10) ~out p =
    let a0 = dc_gain ~out p in
    if a0 <= 0. then None
    else find_crossing ~fmin ~fmax ~level:(a0 /. Float.sqrt 2.) ~out p

  let f_level_db ?(fmin = 1.) ?(fmax = 1e10) ~level_db ~out p =
    let a0 = dc_gain ~out p in
    if a0 <= 0. then None
    else
      let level = a0 *. Ape_util.Float_ext.gain_of_db level_db in
      find_crossing ~fmin ~fmax ~level ~out p

  let unwrapped_phase_at ~out p freq =
    if freq <= 0. then phase_at ~out p freq
    else begin
      (* Continuous phase from DC: anchor at the exact DC phase (0° or
         180° — the ω → 0 phasor is real), then walk a log grid up to
         [freq] counting the ±360° wraps of the principal value.  The
         returned value is the principal-value phase at [freq] minus
         the accumulated wraps, so when no wrap occurs it equals
         {!phase_at} exactly. *)
      let ph0 =
        let v = solution ~out p 0. in
        if v.Complex.re < 0. then 180. else 0.
      in
      let fstart = freq *. 1e-12 in
      (* 8 points per decade over the 12 decades below [freq] —
         comfortably under any pole the simulator can resolve. *)
      let n = 1 + (12 * 8) in
      let grid =
        match List.rev (Ape_util.Float_ext.logspace fstart freq n) with
        | _approx_endpoint :: rest -> List.rev (freq :: rest)
        | [] -> [ freq ]
      in
      let wraps = ref 0 and prev = ref ph0 in
      (* The walk needs every grid point anyway — solve them blocked. *)
      Array.iter
        (fun s ->
          let ph =
            Complex.arg (Ac.voltage_prepared p s out) *. 180. /. Float.pi
          in
          let d = ph -. !prev in
          wraps := !wraps + int_of_float (Float.round (d /. 360.));
          prev := ph)
        (Ac.solve_many p (Array.of_list grid));
      !prev -. (360. *. float_of_int !wraps)
    end

  let phase_margin ~ugf ~out p = 180. +. unwrapped_phase_at ~out p ugf

  type bandpass = {
    f_center : float;
    peak_gain : float;
    f_low : float;
    f_high : float;
    bandwidth : float;
  }

  let bandpass_characteristics ?(fmin = 1.) ?(fmax = 1e8) ~out p =
    (* Coarse peak search on a dense log grid, then golden-section
       refine. *)
    let n = max 16 (int_of_float (24. *. Float.log10 (fmax /. fmin))) in
    let grid = Array.of_list (Ape_util.Float_ext.logspace fmin fmax n) in
    let gains =
      (* The peak search reads the whole grid — solve it blocked. *)
      Array.map
        (fun s -> Complex.norm (Ac.voltage_prepared p s out))
        (Ac.solve_many p grid)
    in
    let peak_idx = ref 0 in
    Array.iteri (fun i g -> if g > gains.(!peak_idx) then peak_idx := i) gains;
    if !peak_idx = 0 || !peak_idx = Array.length grid - 1 then None
    else begin
      (* Golden-section refinement in log f around the grid peak. *)
      let lg f = Float.log10 f in
      let obj lf = -.gain_at ~out p (10. ** lf) in
      let a = ref (lg grid.(!peak_idx - 1))
      and b = ref (lg grid.(!peak_idx + 1)) in
      let phi = 0.6180339887498949 in
      for _ = 1 to 40 do
        let x1 = !b -. (phi *. (!b -. !a)) and x2 = !a +. (phi *. (!b -. !a)) in
        if obj x1 < obj x2 then b := x2 else a := x1
      done;
      let f_center = 10. ** (0.5 *. (!a +. !b)) in
      let peak_gain = gain_at ~out p f_center in
      let level = peak_gain /. Float.sqrt 2. in
      let g f = gain_at ~out p f -. level in
      let low =
        match
          (try
             Some
               (Ape_util.Rootfind.brent
                  (fun lf -> g (10. ** lf))
                  (lg fmin) (lg f_center))
           with Ape_util.Rootfind.No_bracket -> None)
        with
        | Some lf -> Some (10. ** lf)
        | None -> None
      in
      let high =
        match
          (try
             Some
               (Ape_util.Rootfind.brent
                  (fun lf -> g (10. ** lf))
                  (lg f_center) (lg fmax))
           with Ape_util.Rootfind.No_bracket -> None)
        with
        | Some lf -> Some (10. ** lf)
        | None -> None
      in
      match (low, high) with
      | Some f_low, Some f_high ->
        Some
          { f_center; peak_gain; f_low; f_high; bandwidth = f_high -. f_low }
      | _ -> None
    end
end
