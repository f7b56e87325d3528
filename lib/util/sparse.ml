(* Compressed-sparse-column LU, split into a pivoting symbolic-once
   factorisation (left-looking Gilbert–Peierls with depth-first reach,
   the CSparse cs_lu shape) and a numeric-many refactorisation that
   replays the stored pivot sequence over the frozen L/U structure
   (KLU's refactor).  Real and split-complex variants share the
   pattern, ordering and reach machinery; their numeric kernels are
   deliberately written out twice — a functor over an unboxed scalar
   would box the complex pairs and lose exactly the locality this
   module exists for. *)

exception Singular
exception Unstable

(* Refactor stability: the frozen pivot must not be [tau] times smaller
   than the largest magnitude in its eliminated column, or element
   growth could wash out the answer; the caller re-pivots instead. *)
let refactor_tau = 1e-6

let c_symbolic = Ape_obs.counter "sparse.symbolic"
let c_refactor = Ape_obs.counter "sparse.refactor"
let c_unstable = Ape_obs.counter "sparse.refactor_unstable"
let c_panel_refactor = Ape_obs.counter "sparse.panel_refactor"
let g_nnz = Ape_obs.gauge "sparse.nnz"
let g_fill = Ape_obs.gauge "sparse.fill_ratio"

type farr = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

(* Static alias so unchecked accesses below are direct full applications
   of the primitive (the compiler only emits the intrinsic — rather than
   a closure call that boxes every float — for those). *)
module A1 = Bigarray.Array1

let fcreate n : farr =
  let a = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout n in
  Bigarray.Array1.fill a 0.;
  a

(* [order] is the greedy minimum-degree column order every fresh
   factorisation over the pattern uses, computed once when the pattern
   is compiled. *)
type pattern = {
  n : int;
  colptr : int array;
  rowind : int array;
  order : int array;
}

let dim p = p.n
let nnz p = Array.length p.rowind

(* Greedy minimum degree on the symmetrised pattern, with
   clique-on-elimination adjacency updates, over a compiled structure.
   Quadratic scans are fine: {!Builder.compile} runs it once per
   pattern and the decks this serves are at most a few thousand
   unknowns. *)
let greedy_min_degree n colptr rowind =
  let module S = Set.Make (Int) in
  let adj = Array.make (max n 1) S.empty in
  for col = 0 to n - 1 do
    for s = colptr.(col) to colptr.(col + 1) - 1 do
      let row = rowind.(s) in
      if row <> col then begin
        adj.(row) <- S.add col adj.(row);
        adj.(col) <- S.add row adj.(col)
      end
    done
  done;
  let deg = Array.init n (fun v -> S.cardinal adj.(v)) in
  let eliminated = Array.make n false in
  let order = Array.make n 0 in
  for k = 0 to n - 1 do
    let best = ref (-1) and bestd = ref max_int in
    for v = 0 to n - 1 do
      if (not eliminated.(v)) && deg.(v) < !bestd then begin
        bestd := deg.(v);
        best := v
      end
    done;
    let v = !best in
    order.(k) <- v;
    eliminated.(v) <- true;
    let nbrs = adj.(v) in
    S.iter
      (fun u ->
        if not eliminated.(u) then begin
          adj.(u) <- S.remove v (S.remove u (S.union adj.(u) nbrs));
          deg.(u) <- S.cardinal adj.(u)
        end)
      nbrs;
    adj.(v) <- S.empty
  done;
  order

module Builder = struct
  type t = { bn : int; mutable keys : int array; mutable len : int }

  let create n =
    if n < 0 then invalid_arg "Sparse.Builder.create";
    { bn = n; keys = Array.make 16 0; len = 0 }

  let add b row col =
    if row < 0 || row >= b.bn || col < 0 || col >= b.bn then
      invalid_arg "Sparse.Builder.add";
    if b.len = Array.length b.keys then begin
      let keys = Array.make (2 * b.len) 0 in
      Array.blit b.keys 0 keys 0 b.len;
      b.keys <- keys
    end;
    (* One int key keeps the sort allocation-free: n² fits comfortably
       in OCaml's 63-bit ints for any deck this simulator can hold. *)
    b.keys.(b.len) <- (col * b.bn) + row;
    b.len <- b.len + 1

  let compile b =
    let keys = Array.sub b.keys 0 b.len in
    Array.sort compare keys;
    let uniq = ref 0 in
    for i = 0 to b.len - 1 do
      if i = 0 || keys.(i) <> keys.(i - 1) then begin
        keys.(!uniq) <- keys.(i);
        incr uniq
      end
    done;
    let nnz = !uniq in
    let colptr = Array.make (b.bn + 1) 0 in
    let rowind = Array.make nnz 0 in
    for s = 0 to nnz - 1 do
      let col = keys.(s) / b.bn and row = keys.(s) mod b.bn in
      rowind.(s) <- row;
      colptr.(col + 1) <- colptr.(col + 1) + 1
    done;
    for c = 0 to b.bn - 1 do
      colptr.(c + 1) <- colptr.(c + 1) + colptr.(c)
    done;
    { n = b.bn; colptr; rowind; order = greedy_min_degree b.bn colptr rowind }
end

let slot p ~row ~col =
  if col < 0 || col >= p.n then raise Not_found;
  let lo = ref p.colptr.(col) and hi = ref (p.colptr.(col + 1) - 1) in
  let found = ref (-1) in
  while !found < 0 && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let r = p.rowind.(mid) in
    if r = row then found := mid
    else if r < row then lo := mid + 1
    else hi := mid - 1
  done;
  if !found < 0 then raise Not_found else !found

let iter p f =
  for col = 0 to p.n - 1 do
    for s = p.colptr.(col) to p.colptr.(col + 1) - 1 do
      f s p.rowind.(s) col
    done
  done

let min_degree p = p.order

(* ------------------------------------------------------------------ *)
(* Shared symbolic machinery                                           *)
(* ------------------------------------------------------------------ *)

(* Growable int/float pair used while the L/U structures are being
   discovered (first factorisation only; refactor never allocates). *)
type dyn = { mutable di : int array; mutable dx : float array; mutable dlen : int }

let dyn_make () = { di = Array.make 16 0; dx = Array.make 16 0.; dlen = 0 }

let dyn_push d i x =
  if d.dlen = Array.length d.di then begin
    let di = Array.make (2 * d.dlen) 0 and dx = Array.make (2 * d.dlen) 0. in
    Array.blit d.di 0 di 0 d.dlen;
    Array.blit d.dx 0 dx 0 d.dlen;
    d.di <- di;
    d.dx <- dx
  end;
  d.di.(d.dlen) <- i;
  d.dx.(d.dlen) <- x;
  d.dlen <- d.dlen + 1

(* Second value channel for the split-complex build (indices shared). *)
let dyn_push2 d d2 i x x2 =
  dyn_push d i x;
  dyn_push d2 i x2

(* Sort the tail [start..len-1] of a dyn (and a parallel value dyn) by
   index, ascending — the U columns must replay in pivot order during
   refactorisation. *)
let dyn_sort_tail d extra start =
  let len = d.dlen - start in
  if len > 1 then begin
    let perm = Array.init len (fun i -> i) in
    Array.sort (fun a b -> compare d.di.(start + a) d.di.(start + b)) perm;
    let ti = Array.init len (fun i -> d.di.(start + perm.(i))) in
    let tx = Array.init len (fun i -> d.dx.(start + perm.(i))) in
    Array.blit ti 0 d.di start len;
    Array.blit tx 0 d.dx start len;
    match extra with
    | None -> ()
    | Some e ->
      let ex = Array.init len (fun i -> e.dx.(start + perm.(i))) in
      Array.blit ex 0 e.dx start len
  end

(* Depth-first reach of one right-hand-side column through the partial
   L (CSparse cs_reach/cs_dfs, iterative).  Nodes are original row
   indices; a node with an assigned pivot position has the rows of its
   L column as children.  On return, [xi.(!top .. n-1)] holds the reach
   in topological order.  [mark.(i) = gen] flags visited nodes. *)
let reach ~pat ~col ~pinv ~lp ~(ldyn : dyn) ~mark ~gen ~stack ~pstack ~xi ~top =
  let dfs root =
    let head = ref 0 in
    stack.(0) <- root;
    while !head >= 0 do
      let i = stack.(!head) in
      if mark.(i) <> gen then begin
        mark.(i) <- gen;
        pstack.(!head) <- (if pinv.(i) >= 0 then lp.(pinv.(i)) else 0)
      end;
      let k = pinv.(i) in
      let descended = ref false in
      if k >= 0 then begin
        let t = ref pstack.(!head) in
        let tend = lp.(k + 1) in
        while (not !descended) && !t < tend do
          let child = ldyn.di.(!t) in
          if mark.(child) <> gen then begin
            pstack.(!head) <- !t + 1;
            incr head;
            stack.(!head) <- child;
            descended := true
          end
          else incr t
        done;
        if not !descended then pstack.(!head) <- tend
      end;
      if not !descended then begin
        decr head;
        decr top;
        xi.(!top) <- i
      end
    done
  in
  for s = pat.colptr.(col) to pat.colptr.(col + 1) - 1 do
    let i = pat.rowind.(s) in
    if mark.(i) <> gen then dfs i
  done

(* ------------------------------------------------------------------ *)
(* Real variant                                                        *)
(* ------------------------------------------------------------------ *)

module Real = struct
  type t = { pat : pattern; v : farr }

  let create pat = { pat; v = fcreate (nnz pat) }
  let pattern t = t.pat
  let clear t = Bigarray.Array1.fill t.v 0.
  let add_slot t s x = t.v.{s} <- t.v.{s} +. x
  let get_slot t s = t.v.{s}
  let set_slot t s x = t.v.{s} <- x

  type factor = {
    f_pat : pattern;
    q : int array;  (* column order: position jj eliminates column q.(jj) *)
    pinv : int array;  (* original row -> pivot position *)
    lp : int array;  (* n+1; strictly-lower L columns in li/lx *)
    li : int array;  (* pivot-position rows *)
    lx : farr;
    up : int array;  (* n+1; strictly-upper U columns, ascending rows *)
    ui : int array;
    ux : farr;
    udiag : farr;
    w : farr;  (* length-n elimination workspace *)
  }

  let lnz f = Array.length f.li
  let unz f = Array.length f.ui + f.f_pat.n

  let factor (a : t) =
    Ape_obs.incr c_symbolic;
    let pat = a.pat in
    let n = pat.n in
    let q = pat.order in
    let pinv = Array.make n (-1) in
    let lp = Array.make (n + 1) 0 and up = Array.make (n + 1) 0 in
    let l = dyn_make () and u = dyn_make () in
    let udiag = fcreate n in
    let w = Array.make (max n 1) 0. in
    let mark = Array.make (max n 1) (-1) in
    let stack = Array.make (max n 1) 0 in
    let pstack = Array.make (max n 1) 0 in
    let xi = Array.make (max n 1) 0 in
    for jj = 0 to n - 1 do
      let col = q.(jj) in
      let top = ref n in
      reach ~pat ~col ~pinv ~lp ~ldyn:l ~mark ~gen:jj ~stack ~pstack ~xi ~top;
      (* Numeric: clear the reached workspace, scatter A's column, then
         eliminate through the finished columns in topological order. *)
      for s = !top to n - 1 do
        w.(xi.(s)) <- 0.
      done;
      for s = pat.colptr.(col) to pat.colptr.(col + 1) - 1 do
        w.(pat.rowind.(s)) <- a.v.{s}
      done;
      let u_start = u.dlen in
      for s = !top to n - 1 do
        let i = xi.(s) in
        let k = pinv.(i) in
        if k >= 0 then begin
          let xval = w.(i) in
          dyn_push u k xval;
          for t = lp.(k) to lp.(k + 1) - 1 do
            w.(l.di.(t)) <- w.(l.di.(t)) -. (l.dx.(t) *. xval)
          done
        end
      done;
      (* Partial pivoting over the not-yet-pivotal reached rows. *)
      let ipiv = ref (-1) and best = ref 0. in
      for s = !top to n - 1 do
        let i = xi.(s) in
        if pinv.(i) < 0 then begin
          let m = Float.abs w.(i) in
          if m > !best then begin
            best := m;
            ipiv := i
          end
        end
      done;
      if !ipiv < 0 || !best < 1e-300 then raise Singular;
      pinv.(!ipiv) <- jj;
      let piv = w.(!ipiv) in
      udiag.{jj} <- piv;
      dyn_sort_tail u None u_start;
      up.(jj + 1) <- u.dlen;
      for s = !top to n - 1 do
        let i = xi.(s) in
        if pinv.(i) < 0 then dyn_push l i (w.(i) /. piv)
      done;
      lp.(jj + 1) <- l.dlen
    done;
    (* The L rows were original indices while the pivot order was still
       forming; solve and refactor want pivot positions. *)
    for t = 0 to l.dlen - 1 do
      l.di.(t) <- pinv.(l.di.(t))
    done;
    let li = Array.sub l.di 0 l.dlen in
    let lx = fcreate l.dlen in
    for t = 0 to l.dlen - 1 do
      lx.{t} <- l.dx.(t)
    done;
    let ui = Array.sub u.di 0 u.dlen in
    let ux = fcreate u.dlen in
    for t = 0 to u.dlen - 1 do
      ux.{t} <- u.dx.(t)
    done;
    let f =
      { f_pat = pat; q; pinv; lp; li; lx; up; ui; ux; udiag;
        w = fcreate n }
    in
    Ape_obs.set g_nnz (float_of_int (nnz pat));
    if nnz pat > 0 then
      Ape_obs.set g_fill (float_of_int (lnz f + unz f) /. float_of_int (nnz pat));
    f

  let refactor f (a : t) =
    if f.f_pat != a.pat then invalid_arg "Sparse.Real.refactor: pattern mismatch";
    Ape_obs.incr c_refactor;
    let pat = f.f_pat in
    let n = pat.n in
    let w = f.w in
    for jj = 0 to n - 1 do
      let col = f.q.(jj) in
      (* The reach of this column is exactly {U rows} ∪ {jj} ∪ {L rows}
         from the symbolic factorisation — zero it, scatter A, replay. *)
      w.{jj} <- 0.;
      for t = f.up.(jj) to f.up.(jj + 1) - 1 do
        w.{f.ui.(t)} <- 0.
      done;
      for t = f.lp.(jj) to f.lp.(jj + 1) - 1 do
        w.{f.li.(t)} <- 0.
      done;
      for s = pat.colptr.(col) to pat.colptr.(col + 1) - 1 do
        w.{f.pinv.(pat.rowind.(s))} <- a.v.{s}
      done;
      for t = f.up.(jj) to f.up.(jj + 1) - 1 do
        let k = f.ui.(t) in
        let xval = w.{k} in
        f.ux.{t} <- xval;
        for tt = f.lp.(k) to f.lp.(k + 1) - 1 do
          w.{f.li.(tt)} <- w.{f.li.(tt)} -. (f.lx.{tt} *. xval)
        done
      done;
      let piv = w.{jj} in
      let apiv = Float.abs piv in
      if apiv < 1e-300 then begin
        Ape_obs.incr c_unstable;
        raise Singular
      end;
      let colmax = ref apiv in
      for t = f.lp.(jj) to f.lp.(jj + 1) - 1 do
        let m = Float.abs w.{f.li.(t)} in
        if m > !colmax then colmax := m
      done;
      if apiv < refactor_tau *. !colmax then begin
        Ape_obs.incr c_unstable;
        raise Unstable
      end;
      f.udiag.{jj} <- piv;
      for t = f.lp.(jj) to f.lp.(jj + 1) - 1 do
        f.lx.{t} <- w.{f.li.(t)} /. piv
      done
    done

  let solve f b =
    let n = f.f_pat.n in
    if Array.length b <> n then invalid_arg "Sparse.Real.solve";
    let y = Array.make (max n 1) 0. in
    for i = 0 to n - 1 do
      y.(f.pinv.(i)) <- b.(i)
    done;
    for j = 0 to n - 1 do
      let xj = y.(j) in
      for t = f.lp.(j) to f.lp.(j + 1) - 1 do
        y.(f.li.(t)) <- y.(f.li.(t)) -. (f.lx.{t} *. xj)
      done
    done;
    for j = n - 1 downto 0 do
      let xj = y.(j) /. f.udiag.{j} in
      y.(j) <- xj;
      for t = f.up.(j) to f.up.(j + 1) - 1 do
        y.(f.ui.(t)) <- y.(f.ui.(t)) -. (f.ux.{t} *. xj)
      done
    done;
    let x = Array.make n 0. in
    for jj = 0 to n - 1 do
      x.(f.q.(jj)) <- y.(jj)
    done;
    x

end

(* ------------------------------------------------------------------ *)
(* Split-complex variant                                               *)
(* ------------------------------------------------------------------ *)

module Csplit = struct
  type t = { pat : pattern; re : farr; im : farr }

  let create pat = { pat; re = fcreate (nnz pat); im = fcreate (nnz pat) }

  let set_slot t s re im =
    t.re.{s} <- re;
    t.im.{s} <- im

  let assemble_gc t ~(g : Real.t) ~(c : Real.t) ~omega =
    if g.Real.pat != t.pat || c.Real.pat != t.pat then
      invalid_arg "Sparse.Csplit.assemble_gc: pattern mismatch";
    let gv = g.Real.v and cv = c.Real.v in
    for s = 0 to nnz t.pat - 1 do
      t.re.{s} <- gv.{s};
      t.im.{s} <- omega *. cv.{s}
    done

  (* Complex.div (Smith's algorithm) on split operands — the stdlib's
     own arithmetic, so the oracle's dense [Cmat] disagrees with this
     engine only through elimination order, never through scalar
     arithmetic. *)
  let[@inline] cdiv xre xim yre yim =
    if Float.abs yre >= Float.abs yim then begin
      let r = yim /. yre in
      let d = yre +. (r *. yim) in
      ((xre +. (r *. xim)) /. d, (xim -. (r *. xre)) /. d)
    end
    else begin
      let r = yre /. yim in
      let d = yim +. (r *. yre) in
      (((r *. xre) +. xim) /. d, ((r *. xim) -. xre) /. d)
    end

  type factor = {
    f_pat : pattern;
    q : int array;
    pinv : int array;
    lp : int array;
    li : int array;
    lxre : farr;
    lxim : farr;
    up : int array;
    ui : int array;
    uxre : farr;
    uxim : farr;
    udre : farr;
    udim : farr;
    wre : farr;
    wim : farr;
  }

  let lnz f = Array.length f.li
  let unz f = Array.length f.ui + f.f_pat.n

  let factor (a : t) =
    Ape_obs.incr c_symbolic;
    let pat = a.pat in
    let n = pat.n in
    let q = pat.order in
    let pinv = Array.make n (-1) in
    let lp = Array.make (n + 1) 0 and up = Array.make (n + 1) 0 in
    let l = dyn_make () and lim = dyn_make () in
    let u = dyn_make () and uim = dyn_make () in
    let udre = fcreate n and udim = fcreate n in
    let wre = Array.make (max n 1) 0. and wim = Array.make (max n 1) 0. in
    let mark = Array.make (max n 1) (-1) in
    let stack = Array.make (max n 1) 0 in
    let pstack = Array.make (max n 1) 0 in
    let xi = Array.make (max n 1) 0 in
    for jj = 0 to n - 1 do
      let col = q.(jj) in
      let top = ref n in
      reach ~pat ~col ~pinv ~lp ~ldyn:l ~mark ~gen:jj ~stack ~pstack ~xi ~top;
      for s = !top to n - 1 do
        wre.(xi.(s)) <- 0.;
        wim.(xi.(s)) <- 0.
      done;
      for s = pat.colptr.(col) to pat.colptr.(col + 1) - 1 do
        wre.(pat.rowind.(s)) <- a.re.{s};
        wim.(pat.rowind.(s)) <- a.im.{s}
      done;
      let u_start = u.dlen in
      for s = !top to n - 1 do
        let i = xi.(s) in
        let k = pinv.(i) in
        if k >= 0 then begin
          let xr = wre.(i) and xim_ = wim.(i) in
          dyn_push2 u uim k xr xim_;
          for t = lp.(k) to lp.(k + 1) - 1 do
            let lr = l.dx.(t) and li_ = lim.dx.(t) in
            let r = l.di.(t) in
            wre.(r) <- wre.(r) -. ((lr *. xr) -. (li_ *. xim_));
            wim.(r) <- wim.(r) -. ((lr *. xim_) +. (li_ *. xr))
          done
        end
      done;
      let ipiv = ref (-1) and best = ref 0. in
      for s = !top to n - 1 do
        let i = xi.(s) in
        if pinv.(i) < 0 then begin
          let m = Float.hypot wre.(i) wim.(i) in
          if m > !best then begin
            best := m;
            ipiv := i
          end
        end
      done;
      if !ipiv < 0 || !best < 1e-300 then raise Singular;
      pinv.(!ipiv) <- jj;
      let pr = wre.(!ipiv) and pi = wim.(!ipiv) in
      udre.{jj} <- pr;
      udim.{jj} <- pi;
      dyn_sort_tail u (Some uim) u_start;
      up.(jj + 1) <- u.dlen;
      for s = !top to n - 1 do
        let i = xi.(s) in
        if pinv.(i) < 0 then begin
          let lr, li_ = cdiv wre.(i) wim.(i) pr pi in
          dyn_push2 l lim i lr li_
        end
      done;
      lp.(jj + 1) <- l.dlen
    done;
    for t = 0 to l.dlen - 1 do
      l.di.(t) <- pinv.(l.di.(t))
    done;
    let li = Array.sub l.di 0 l.dlen in
    let lxre = fcreate l.dlen and lxim = fcreate l.dlen in
    for t = 0 to l.dlen - 1 do
      lxre.{t} <- l.dx.(t);
      lxim.{t} <- lim.dx.(t)
    done;
    let ui = Array.sub u.di 0 u.dlen in
    let uxre = fcreate u.dlen and uxim = fcreate u.dlen in
    for t = 0 to u.dlen - 1 do
      uxre.{t} <- u.dx.(t);
      uxim.{t} <- uim.dx.(t)
    done;
    let f =
      { f_pat = pat; q; pinv; lp; li; lxre; lxim; up; ui; uxre; uxim;
        udre; udim; wre = fcreate n; wim = fcreate n }
    in
    Ape_obs.set g_nnz (float_of_int (nnz pat));
    if nnz pat > 0 then
      Ape_obs.set g_fill (float_of_int (lnz f + unz f) /. float_of_int (nnz pat));
    f

  let refactor f (a : t) =
    if f.f_pat != a.pat then
      invalid_arg "Sparse.Csplit.refactor: pattern mismatch";
    Ape_obs.incr c_refactor;
    let pat = f.f_pat in
    let n = pat.n in
    let wre = f.wre and wim = f.wim in
    for jj = 0 to n - 1 do
      let col = f.q.(jj) in
      wre.{jj} <- 0.;
      wim.{jj} <- 0.;
      for t = f.up.(jj) to f.up.(jj + 1) - 1 do
        wre.{f.ui.(t)} <- 0.;
        wim.{f.ui.(t)} <- 0.
      done;
      for t = f.lp.(jj) to f.lp.(jj + 1) - 1 do
        wre.{f.li.(t)} <- 0.;
        wim.{f.li.(t)} <- 0.
      done;
      for s = pat.colptr.(col) to pat.colptr.(col + 1) - 1 do
        let r = f.pinv.(pat.rowind.(s)) in
        wre.{r} <- a.re.{s};
        wim.{r} <- a.im.{s}
      done;
      for t = f.up.(jj) to f.up.(jj + 1) - 1 do
        let k = f.ui.(t) in
        let xr = wre.{k} and xi_ = wim.{k} in
        f.uxre.{t} <- xr;
        f.uxim.{t} <- xi_;
        for tt = f.lp.(k) to f.lp.(k + 1) - 1 do
          let r = f.li.(tt) in
          let lr = f.lxre.{tt} and li_ = f.lxim.{tt} in
          wre.{r} <- wre.{r} -. ((lr *. xr) -. (li_ *. xi_));
          wim.{r} <- wim.{r} -. ((lr *. xi_) +. (li_ *. xr))
        done
      done;
      let pr = wre.{jj} and pi = wim.{jj} in
      let apiv = Float.hypot pr pi in
      if apiv < 1e-300 then begin
        Ape_obs.incr c_unstable;
        raise Singular
      end;
      let colmax = ref apiv in
      for t = f.lp.(jj) to f.lp.(jj + 1) - 1 do
        let m = Float.hypot wre.{f.li.(t)} wim.{f.li.(t)} in
        if m > !colmax then colmax := m
      done;
      if apiv < refactor_tau *. !colmax then begin
        Ape_obs.incr c_unstable;
        raise Unstable
      end;
      f.udre.{jj} <- pr;
      f.udim.{jj} <- pi;
      for t = f.lp.(jj) to f.lp.(jj + 1) - 1 do
        let r = f.li.(t) in
        let lr, li_ = cdiv wre.{r} wim.{r} pr pi in
        f.lxre.{t} <- lr;
        f.lxim.{t} <- li_
      done
    done

  let solve f (b : Complex.t array) =
    let n = f.f_pat.n in
    if Array.length b <> n then invalid_arg "Sparse.Csplit.solve";
    let yre = Array.make (max n 1) 0. and yim = Array.make (max n 1) 0. in
    for i = 0 to n - 1 do
      yre.(f.pinv.(i)) <- b.(i).Complex.re;
      yim.(f.pinv.(i)) <- b.(i).Complex.im
    done;
    for j = 0 to n - 1 do
      let xr = yre.(j) and xi_ = yim.(j) in
      for t = f.lp.(j) to f.lp.(j + 1) - 1 do
        let r = f.li.(t) in
        let lr = f.lxre.{t} and li_ = f.lxim.{t} in
        yre.(r) <- yre.(r) -. ((lr *. xr) -. (li_ *. xi_));
        yim.(r) <- yim.(r) -. ((lr *. xi_) +. (li_ *. xr))
      done
    done;
    for j = n - 1 downto 0 do
      let xr, xi_ = cdiv yre.(j) yim.(j) f.udre.{j} f.udim.{j} in
      yre.(j) <- xr;
      yim.(j) <- xi_;
      for t = f.up.(j) to f.up.(j + 1) - 1 do
        let r = f.ui.(t) in
        let ur = f.uxre.{t} and ui_ = f.uxim.{t} in
        yre.(r) <- yre.(r) -. ((ur *. xr) -. (ui_ *. xi_));
        yim.(r) <- yim.(r) -. ((ur *. xi_) +. (ui_ *. xr))
      done
    done;
    let x = Array.make n Complex.zero in
    for jj = 0 to n - 1 do
      x.(f.q.(jj)) <- { Complex.re = yre.(jj); im = yim.(jj) }
    done;
    x

  (* Solve Aᵀy = b with the factorisation of A — the reciprocity
     workhorse: one transposed solve against the output selector gives
     the transfer impedance from *every* injection site at once.
     Writing the permuted system as Â = P A Qᵀ = L U, the transposed
     solve runs Uᵀ forward (U columns gather instead of scatter, divide
     by the diagonal) and Lᵀ backward (unit diagonal), with the roles of
     the two permutations swapped relative to [solve]. *)
  let solve_transposed f (b : Complex.t array) =
    let n = f.f_pat.n in
    if Array.length b <> n then invalid_arg "Sparse.Csplit.solve_transposed";
    let yre = Array.make (max n 1) 0. and yim = Array.make (max n 1) 0. in
    for jj = 0 to n - 1 do
      yre.(jj) <- b.(f.q.(jj)).Complex.re;
      yim.(jj) <- b.(f.q.(jj)).Complex.im
    done;
    (* Forward with Uᵀ: U columns gather, then divide by the diagonal. *)
    for j = 0 to n - 1 do
      let accre = ref yre.(j) and accim = ref yim.(j) in
      for t = f.up.(j) to f.up.(j + 1) - 1 do
        let r = f.ui.(t) in
        let ur = f.uxre.{t} and ui_ = f.uxim.{t} in
        accre := !accre -. ((ur *. yre.(r)) -. (ui_ *. yim.(r)));
        accim := !accim -. ((ur *. yim.(r)) +. (ui_ *. yre.(r)))
      done;
      let xr, xi_ = cdiv !accre !accim f.udre.{j} f.udim.{j} in
      yre.(j) <- xr;
      yim.(j) <- xi_
    done;
    (* Backward with Lᵀ (unit diagonal). *)
    for j = n - 1 downto 0 do
      let accre = ref yre.(j) and accim = ref yim.(j) in
      for t = f.lp.(j) to f.lp.(j + 1) - 1 do
        let r = f.li.(t) in
        let lr = f.lxre.{t} and li_ = f.lxim.{t} in
        accre := !accre -. ((lr *. yre.(r)) -. (li_ *. yim.(r)));
        accim := !accim -. ((lr *. yim.(r)) +. (li_ *. yre.(r)))
      done;
      yre.(j) <- !accre;
      yim.(j) <- !accim
    done;
    let x = Array.make n Complex.zero in
    for i = 0 to n - 1 do
      x.(i) <- { Complex.re = yre.(f.pinv.(i)); im = yim.(f.pinv.(i)) }
    done;
    x

  (* ---------------------------------------------------------------- *)
  (* Frequency panels                                                  *)
  (* ---------------------------------------------------------------- *)

  (* A panel carries the numeric values of K systems that share one
     pattern and one frozen pivot sequence, laid out slot-major with
     lane stride K (structure of arrays): the value of slot [s] in lane
     [kk] lives at [s*K + kk].  One traversal of the symbolic structure
     then refactors and solves all K lanes — the index arithmetic is
     amortised and the inner loop is a contiguous stride-K stream.
     Lanes never mix arithmetically, so each lane reproduces the scalar
     [refactor]/[solve] floating-point sequence bit for bit; a lane
     whose frozen pivot fails the stability test is marked bad and the
     caller re-solves just that lane through the scalar path. *)
  module Panel = struct
    type vals = {
      v_pat : pattern;
      vk : int;  (* physical lane count (the stride) *)
      mutable vm : int;  (* lanes in use, <= vk *)
      vre : farr;  (* nnz * vk *)
      vim : farr;
    }

    let create pat ~k =
      if k < 1 then invalid_arg "Sparse.Csplit.Panel.create";
      { v_pat = pat; vk = k; vm = k;
        vre = fcreate (nnz pat * k); vim = fcreate (nnz pat * k) }

    let set_slot v s ~lane re im =
      if lane < 0 || lane >= v.vk then invalid_arg "Sparse.Csplit.Panel.set_slot";
      v.vre.{(s * v.vk) + lane} <- re;
      v.vim.{(s * v.vk) + lane} <- im

    (* The kernels below use unchecked loads and stores: every index is
       derived from the factor's own pattern arrays (colptr/rowind/lp/
       li/up/ui all bounded by construction) scaled by the width the
       entry checks pin down, so the bounds are invariants, not inputs.
       On a non-flambda compiler the checked [.{}] form costs a compare
       and branch per access — in these stride-[k] streams that is most
       of the runtime. *)

    let assemble_gc v ~(g : Real.t) ~(c : Real.t) ~omegas =
      if g.Real.pat != v.v_pat || c.Real.pat != v.v_pat then
        invalid_arg "Sparse.Csplit.Panel.assemble_gc: pattern mismatch";
      let m = Array.length omegas in
      if m < 1 || m > v.vk then
        invalid_arg "Sparse.Csplit.Panel.assemble_gc: lane count";
      v.vm <- m;
      let k = v.vk in
      let gv = g.Real.v and cv = c.Real.v in
      let vre = v.vre and vim = v.vim in
      for s = 0 to nnz v.v_pat - 1 do
        let gs = A1.unsafe_get gv s and cs = A1.unsafe_get cv s in
        let base = s * k in
        for kk = 0 to m - 1 do
          A1.unsafe_set vre (base + kk) gs;
          A1.unsafe_set vim (base + kk) (Array.unsafe_get omegas kk *. cs)
        done
      done

    type pfactor = {
      base : factor;  (* symbolic skeleton: q/pinv/lp/li/up/ui, read-only *)
      pk : int;
      mutable pm : int;
      plre : farr;  (* lnz * pk *)
      plim : farr;
      puxre : farr;  (* |ui| * pk *)
      puxim : farr;
      pudre : farr;  (* n * pk *)
      pudim : farr;
      pwre : farr;  (* n * pk elimination / solve workspace *)
      pwim : farr;
      pok : bool array;  (* pk; lane passed every pivot-stability test *)
    }

    let prepare (f : factor) ~k =
      if k < 1 then invalid_arg "Sparse.Csplit.Panel.prepare";
      let n = f.f_pat.n in
      { base = f; pk = k; pm = k;
        plre = fcreate (Array.length f.li * k);
        plim = fcreate (Array.length f.li * k);
        puxre = fcreate (Array.length f.ui * k);
        puxim = fcreate (Array.length f.ui * k);
        pudre = fcreate (n * k); pudim = fcreate (n * k);
        pwre = fcreate (n * k); pwim = fcreate (n * k);
        pok = Array.make k true }

    let ok pf kk = pf.pok.(kk)

    (* One symbolic traversal, K numeric refactorisations.  The lane
       loop is innermost at every arithmetic site, so per-lane values
       replay the exact scalar [refactor] operation sequence.  A lane
       that trips the stability test just drops its [pok] flag — its
       arithmetic keeps running (possibly to inf/nan) but can never
       leak into another lane. *)
    let refactor pf (v : vals) =
      let f = pf.base in
      if f.f_pat != v.v_pat then
        invalid_arg "Sparse.Csplit.Panel.refactor: pattern mismatch";
      if v.vk <> pf.pk then
        invalid_arg "Sparse.Csplit.Panel.refactor: width mismatch";
      Ape_obs.incr c_panel_refactor;
      let m = v.vm in
      pf.pm <- m;
      for kk = 0 to pf.pk - 1 do
        pf.pok.(kk) <- kk < m
      done;
      let pat = f.f_pat in
      let n = pat.n in
      let k = pf.pk in
      let wre = pf.pwre and wim = pf.pwim in
      let plre = pf.plre and plim = pf.plim in
      let puxre = pf.puxre and puxim = pf.puxim in
      let pudre = pf.pudre and pudim = pf.pudim in
      let vre = v.vre and vim = v.vim in
      let q = f.q and pinv = f.pinv in
      let lp = f.lp and li = f.li and up = f.up and ui = f.ui in
      let colptr = pat.colptr and rowind = pat.rowind in
      let pok = pf.pok in
      for jj = 0 to n - 1 do
        let col = Array.unsafe_get q jj in
        let up0 = Array.unsafe_get up jj and up1 = Array.unsafe_get up (jj + 1) in
        let lp0 = Array.unsafe_get lp jj and lp1 = Array.unsafe_get lp (jj + 1) in
        let jb = jj * k in
        for kk = 0 to m - 1 do
          A1.unsafe_set wre (jb + kk) 0.;
          A1.unsafe_set wim (jb + kk) 0.
        done;
        for t = up0 to up1 - 1 do
          let b = Array.unsafe_get ui t * k in
          for kk = 0 to m - 1 do
            A1.unsafe_set wre (b + kk) 0.;
            A1.unsafe_set wim (b + kk) 0.
          done
        done;
        for t = lp0 to lp1 - 1 do
          let b = Array.unsafe_get li t * k in
          for kk = 0 to m - 1 do
            A1.unsafe_set wre (b + kk) 0.;
            A1.unsafe_set wim (b + kk) 0.
          done
        done;
        for s = Array.unsafe_get colptr col to Array.unsafe_get colptr (col + 1) - 1 do
          let rb = Array.unsafe_get pinv (Array.unsafe_get rowind s) * k and sb = s * k in
          for kk = 0 to m - 1 do
            A1.unsafe_set wre (rb + kk) (A1.unsafe_get vre (sb + kk));
            A1.unsafe_set wim (rb + kk) (A1.unsafe_get vim (sb + kk))
          done
        done;
        for t = up0 to up1 - 1 do
          let kc = Array.unsafe_get ui t in
          let kb = kc * k and tb = t * k in
          for kk = 0 to m - 1 do
            A1.unsafe_set puxre (tb + kk) (A1.unsafe_get wre (kb + kk));
            A1.unsafe_set puxim (tb + kk) (A1.unsafe_get wim (kb + kk))
          done;
          for tt = Array.unsafe_get lp kc to Array.unsafe_get lp (kc + 1) - 1 do
            let rb = Array.unsafe_get li tt * k and ttb = tt * k in
            for kk = 0 to m - 1 do
              let xr = A1.unsafe_get wre (kb + kk) and xi_ = A1.unsafe_get wim (kb + kk) in
              let lr = A1.unsafe_get plre (ttb + kk) and li_ = A1.unsafe_get plim (ttb + kk) in
              A1.unsafe_set wre (rb + kk)
                (A1.unsafe_get wre (rb + kk) -. ((lr *. xr) -. (li_ *. xi_)));
              A1.unsafe_set wim (rb + kk)
                (A1.unsafe_get wim (rb + kk) -. ((lr *. xi_) +. (li_ *. xr)))
            done
          done
        done;
        (* Stability, decided exactly as the scalar [refactor] does but
           with a conservative screen first: max(|re|,|im|) bounds the
           pivot magnitude from below and |re|+|im| bounds any column
           entry from above, so a pivot that passes on those bounds
           passes the hypot test a fortiori — the two libm hypots per
           eliminated entry only run for pivots near the threshold
           (where both tests agree by construction). *)
        for kk = 0 to m - 1 do
          if Array.unsafe_get pok kk then begin
            let pr = A1.unsafe_get wre (jb + kk) and pi = A1.unsafe_get wim (jb + kk) in
            let piv_lo = Float.max (Float.abs pr) (Float.abs pi) in
            let col_hi = ref 0. in
            for t = lp0 to lp1 - 1 do
              let rb = Array.unsafe_get li t * k in
              let s =
                Float.abs (A1.unsafe_get wre (rb + kk)) +. Float.abs (A1.unsafe_get wim (rb + kk))
              in
              if s > !col_hi then col_hi := s
            done;
            if not (piv_lo >= 1e-300 && piv_lo >= refactor_tau *. !col_hi)
            then begin
              let apiv = Float.hypot pr pi in
              if apiv < 1e-300 then Array.unsafe_set pok kk false
              else begin
                let colmax = ref apiv in
                for t = lp0 to lp1 - 1 do
                  let rb = Array.unsafe_get li t * k in
                  let mgn =
                    Float.hypot (A1.unsafe_get wre (rb + kk)) (A1.unsafe_get wim (rb + kk))
                  in
                  if mgn > !colmax then colmax := mgn
                done;
                if apiv < refactor_tau *. !colmax then
                  Array.unsafe_set pok kk false
              end
            end
          end
        done;
        for kk = 0 to m - 1 do
          A1.unsafe_set pudre (jb + kk) (A1.unsafe_get wre (jb + kk));
          A1.unsafe_set pudim (jb + kk) (A1.unsafe_get wim (jb + kk))
        done;
        for t = lp0 to lp1 - 1 do
          let rb = Array.unsafe_get li t * k and tb = t * k in
          for kk = 0 to m - 1 do
            (* [cdiv] inlined (same Smith's-algorithm operation order)
               to keep the tuple it returns off the minor heap. *)
            let xre = A1.unsafe_get wre (rb + kk) and xim = A1.unsafe_get wim (rb + kk) in
            let yre = A1.unsafe_get pudre (jb + kk) and yim = A1.unsafe_get pudim (jb + kk) in
            if Float.abs yre >= Float.abs yim then begin
              let r = yim /. yre in
              let d = yre +. (r *. yim) in
              A1.unsafe_set plre (tb + kk) ((xre +. (r *. xim)) /. d);
              A1.unsafe_set plim (tb + kk) ((xim -. (r *. xre)) /. d)
            end
            else begin
              let r = yre /. yim in
              let d = yim +. (r *. yre) in
              A1.unsafe_set plre (tb + kk) (((r *. xre) +. xim) /. d);
              A1.unsafe_set plim (tb + kk) (((r *. xim) -. xre) /. d)
            end
          done
        done
      done

    (* K triangular solves of one shared right-hand side; returns one
       solution vector per lane (bad lanes return garbage — check
       [ok]). *)
    let solve pf (b : Complex.t array) =
      let f = pf.base in
      let n = f.f_pat.n in
      if Array.length b <> n then invalid_arg "Sparse.Csplit.Panel.solve";
      let k = pf.pk and m = pf.pm in
      let yre = pf.pwre and yim = pf.pwim in
      let plre = pf.plre and plim = pf.plim in
      let puxre = pf.puxre and puxim = pf.puxim in
      let pudre = pf.pudre and pudim = pf.pudim in
      let q = f.q and pinv = f.pinv in
      let lp = f.lp and li = f.li and up = f.up and ui = f.ui in
      for i = 0 to n - 1 do
        let rb = Array.unsafe_get pinv i * k in
        let bi = Array.unsafe_get b i in
        let re = bi.Complex.re and im = bi.Complex.im in
        for kk = 0 to m - 1 do
          A1.unsafe_set yre (rb + kk) re;
          A1.unsafe_set yim (rb + kk) im
        done
      done;
      for j = 0 to n - 1 do
        let jb = j * k in
        for t = Array.unsafe_get lp j to Array.unsafe_get lp (j + 1) - 1 do
          let rb = Array.unsafe_get li t * k and tb = t * k in
          for kk = 0 to m - 1 do
            let xr = A1.unsafe_get yre (jb + kk) and xi_ = A1.unsafe_get yim (jb + kk) in
            let lr = A1.unsafe_get plre (tb + kk) and li_ = A1.unsafe_get plim (tb + kk) in
            A1.unsafe_set yre (rb + kk)
              (A1.unsafe_get yre (rb + kk) -. ((lr *. xr) -. (li_ *. xi_)));
            A1.unsafe_set yim (rb + kk)
              (A1.unsafe_get yim (rb + kk) -. ((lr *. xi_) +. (li_ *. xr)))
          done
        done
      done;
      for j = n - 1 downto 0 do
        let jb = j * k in
        for kk = 0 to m - 1 do
          (* [cdiv] inlined, as in [refactor]. *)
          let xre = A1.unsafe_get yre (jb + kk) and xim = A1.unsafe_get yim (jb + kk) in
          let yre_ = A1.unsafe_get pudre (jb + kk) and yim_ = A1.unsafe_get pudim (jb + kk) in
          if Float.abs yre_ >= Float.abs yim_ then begin
            let r = yim_ /. yre_ in
            let d = yre_ +. (r *. yim_) in
            A1.unsafe_set yre (jb + kk) ((xre +. (r *. xim)) /. d);
            A1.unsafe_set yim (jb + kk) ((xim -. (r *. xre)) /. d)
          end
          else begin
            let r = yre_ /. yim_ in
            let d = yim_ +. (r *. yre_) in
            A1.unsafe_set yre (jb + kk) (((r *. xre) +. xim) /. d);
            A1.unsafe_set yim (jb + kk) (((r *. xim) -. xre) /. d)
          end
        done;
        for t = Array.unsafe_get up j to Array.unsafe_get up (j + 1) - 1 do
          let rb = Array.unsafe_get ui t * k and tb = t * k in
          for kk = 0 to m - 1 do
            let xr = A1.unsafe_get yre (jb + kk) and xi_ = A1.unsafe_get yim (jb + kk) in
            let ur = A1.unsafe_get puxre (tb + kk) and ui_ = A1.unsafe_get puxim (tb + kk) in
            A1.unsafe_set yre (rb + kk)
              (A1.unsafe_get yre (rb + kk) -. ((ur *. xr) -. (ui_ *. xi_)));
            A1.unsafe_set yim (rb + kk)
              (A1.unsafe_get yim (rb + kk) -. ((ur *. xi_) +. (ui_ *. xr)))
          done
        done
      done;
      Array.init m (fun kk ->
          let x = Array.make n Complex.zero in
          for jj = 0 to n - 1 do
            x.(Array.unsafe_get q jj) <-
              { Complex.re = A1.unsafe_get yre ((jj * k) + kk);
                im = A1.unsafe_get yim ((jj * k) + kk) }
          done;
          x)

    (* K adjoint solves Aᵀy = b of one shared right-hand side, each lane
       replaying the scalar [solve_transposed]: the Uᵀ gather in [up]
       order closed by Smith's division, then the Lᵀ gather in [lp]
       order.  A gathered entry lies strictly above (Uᵀ) or below (Lᵀ)
       the diagonal, so subtracting straight into row [j]'s lane is the
       scalar accumulator's exact operation sequence.  Bad lanes return
       garbage, as in [solve]. *)
    let solve_transposed pf (b : Complex.t array) =
      let f = pf.base in
      let n = f.f_pat.n in
      if Array.length b <> n then
        invalid_arg "Sparse.Csplit.Panel.solve_transposed";
      let k = pf.pk and m = pf.pm in
      let yre = pf.pwre and yim = pf.pwim in
      let plre = pf.plre and plim = pf.plim in
      let puxre = pf.puxre and puxim = pf.puxim in
      let pudre = pf.pudre and pudim = pf.pudim in
      let q = f.q and pinv = f.pinv in
      let lp = f.lp and li = f.li and up = f.up and ui = f.ui in
      for jj = 0 to n - 1 do
        let jb = jj * k in
        let bj = Array.unsafe_get b (Array.unsafe_get q jj) in
        let re = bj.Complex.re and im = bj.Complex.im in
        for kk = 0 to m - 1 do
          A1.unsafe_set yre (jb + kk) re;
          A1.unsafe_set yim (jb + kk) im
        done
      done;
      for j = 0 to n - 1 do
        let jb = j * k in
        for t = Array.unsafe_get up j to Array.unsafe_get up (j + 1) - 1 do
          let rb = Array.unsafe_get ui t * k and tb = t * k in
          for kk = 0 to m - 1 do
            let yr = A1.unsafe_get yre (rb + kk) and yi = A1.unsafe_get yim (rb + kk) in
            let ur = A1.unsafe_get puxre (tb + kk) and ui_ = A1.unsafe_get puxim (tb + kk) in
            A1.unsafe_set yre (jb + kk)
              (A1.unsafe_get yre (jb + kk) -. ((ur *. yr) -. (ui_ *. yi)));
            A1.unsafe_set yim (jb + kk)
              (A1.unsafe_get yim (jb + kk) -. ((ur *. yi) +. (ui_ *. yr)))
          done
        done;
        for kk = 0 to m - 1 do
          (* [cdiv] inlined, as in [refactor]. *)
          let xre = A1.unsafe_get yre (jb + kk) and xim = A1.unsafe_get yim (jb + kk) in
          let yre_ = A1.unsafe_get pudre (jb + kk) and yim_ = A1.unsafe_get pudim (jb + kk) in
          if Float.abs yre_ >= Float.abs yim_ then begin
            let r = yim_ /. yre_ in
            let d = yre_ +. (r *. yim_) in
            A1.unsafe_set yre (jb + kk) ((xre +. (r *. xim)) /. d);
            A1.unsafe_set yim (jb + kk) ((xim -. (r *. xre)) /. d)
          end
          else begin
            let r = yre_ /. yim_ in
            let d = yim_ +. (r *. yre_) in
            A1.unsafe_set yre (jb + kk) (((r *. xre) +. xim) /. d);
            A1.unsafe_set yim (jb + kk) (((r *. xim) -. xre) /. d)
          end
        done
      done;
      for j = n - 1 downto 0 do
        let jb = j * k in
        for t = Array.unsafe_get lp j to Array.unsafe_get lp (j + 1) - 1 do
          let rb = Array.unsafe_get li t * k and tb = t * k in
          for kk = 0 to m - 1 do
            let yr = A1.unsafe_get yre (rb + kk) and yi = A1.unsafe_get yim (rb + kk) in
            let lr = A1.unsafe_get plre (tb + kk) and li_ = A1.unsafe_get plim (tb + kk) in
            A1.unsafe_set yre (jb + kk)
              (A1.unsafe_get yre (jb + kk) -. ((lr *. yr) -. (li_ *. yi)));
            A1.unsafe_set yim (jb + kk)
              (A1.unsafe_get yim (jb + kk) -. ((lr *. yi) +. (li_ *. yr)))
          done
        done
      done;
      Array.init m (fun kk ->
          let x = Array.make n Complex.zero in
          for i = 0 to n - 1 do
            let rb = (Array.unsafe_get pinv i * k) + kk in
            x.(i) <- { Complex.re = A1.unsafe_get yre rb; im = A1.unsafe_get yim rb }
          done;
          x)
  end
end
