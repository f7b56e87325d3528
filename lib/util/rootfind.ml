exception No_bracket
exception No_convergence

(* Brent's method as in "Algorithms for Minimization without Derivatives";
   maintains the bracket [a, b] with b the best iterate. *)
let brent ?(tol = 1e-13) f a0 b0 =
  let fa0 = f a0 and fb0 = f b0 in
  if fa0 = 0. then a0
  else if fb0 = 0. then b0
  else if fa0 *. fb0 > 0. then raise No_bracket
  else begin
    let a = ref a0 and b = ref b0 and fa = ref fa0 and fb = ref fb0 in
    if Float.abs !fa < Float.abs !fb then begin
      let t = !a in
      a := !b;
      b := t;
      let t = !fa in
      fa := !fb;
      fb := t
    end;
    let c = ref !a and fc = ref !fa in
    let mflag = ref true and d = ref !a in
    let answer = ref !b in
    (try
       for _ = 1 to 100 do
         if !fb = 0. || Float.abs (!b -. !a) < tol *. (1. +. Float.abs !b)
         then begin
           answer := !b;
           raise Exit
         end;
         let s =
           if !fa <> !fc && !fb <> !fc then
             (* Inverse quadratic interpolation. *)
             (!a *. !fb *. !fc /. ((!fa -. !fb) *. (!fa -. !fc)))
             +. (!b *. !fa *. !fc /. ((!fb -. !fa) *. (!fb -. !fc)))
             +. (!c *. !fa *. !fb /. ((!fc -. !fa) *. (!fc -. !fb)))
           else !b -. (!fb *. (!b -. !a) /. (!fb -. !fa))
         in
         let cond1 =
           let lo = ((3. *. !a) +. !b) /. 4. in
           not
             ((s > Float.min lo !b && s < Float.max lo !b)
             || (s > Float.min !b lo && s < Float.max !b lo))
         in
         let cond2 = !mflag && Float.abs (s -. !b) >= Float.abs (!b -. !c) /. 2. in
         let cond3 =
           (not !mflag) && Float.abs (s -. !b) >= Float.abs (!c -. !d) /. 2.
         in
         let s =
           if cond1 || cond2 || cond3 then begin
             mflag := true;
             0.5 *. (!a +. !b)
           end
           else begin
             mflag := false;
             s
           end
         in
         let fs = f s in
         d := !c;
         c := !b;
         fc := !fb;
         if !fa *. fs < 0. then begin
           b := s;
           fb := fs
         end
         else begin
           a := s;
           fa := fs
         end;
         if Float.abs !fa < Float.abs !fb then begin
           let t = !a in
           a := !b;
           b := t;
           let t = !fa in
           fa := !fb;
           fb := t
         end
       done;
       answer := !b
     with Exit -> ());
    !answer
  end

let newton ~f ~df x0 =
  let rec loop x i =
    if i > 60 then raise No_convergence;
    let fx = f x in
    let dfx = df x in
    if Float.abs dfx < 1e-300 then raise No_convergence;
    let x' = x -. (fx /. dfx) in
    if Float.abs (x' -. x) < 1e-12 *. (1. +. Float.abs x') then x'
    else loop x' (i + 1)
  in
  loop x0 0

let expand_bracket f lo hi =
  if lo >= hi then invalid_arg "Rootfind.expand_bracket: lo >= hi";
  let rec loop lo hi i =
    if i > 60 then raise No_bracket;
    let flo = f lo and fhi = f hi in
    if flo *. fhi <= 0. then (lo, hi)
    else begin
      let mid = 0.5 *. (lo +. hi) and half = 0.5 *. (hi -. lo) in
      let grown = half *. 1.6 in
      loop (mid -. grown) (mid +. grown) (i + 1)
    end
  in
  loop lo hi 0
