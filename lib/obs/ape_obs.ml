(* Metrics registry + per-domain sinks.

   Hot-path discipline: every recording entry point opens with
   [if not !on then ()] — one load and one conditional branch when
   observation is disabled, no allocation, no function call.  When
   enabled, a site touches only its own domain's sink (via DLS), so
   there is no synchronisation on the hot path either; sinks meet the
   shared accumulator only at flush points (worker join, snapshot). *)

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)
(* ------------------------------------------------------------------ *)

type kind = Counter | Gauge | Histogram

type metric = { id : int; name : string; kind : kind }
type counter = metric
type gauge = metric
type histogram = metric

let kind_name = function
  | Counter -> "counter"
  | Gauge -> "gauge"
  | Histogram -> "histogram"

let registry_lock = Mutex.create ()
let metric_count = ref 0 (* length of the registry, read by [ensure] *)
let by_name : (string, metric) Hashtbl.t = Hashtbl.create 64

let with_lock m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let register kind name =
  with_lock registry_lock (fun () ->
      match Hashtbl.find_opt by_name name with
      | Some m ->
        if m.kind <> kind then
          invalid_arg
            (Printf.sprintf "Ape_obs: %s is already a %s, not a %s" name
               (kind_name m.kind) (kind_name kind));
        m
      | None ->
        let m = { id = !metric_count; name; kind } in
        incr metric_count;
        Hashtbl.add by_name name m;
        m)

let counter name = register Counter name
let gauge name = register Gauge name
let histogram name = register Histogram name

let all_metrics () =
  with_lock registry_lock (fun () ->
      let l = Hashtbl.fold (fun _ m acc -> m :: acc) by_name [] in
      List.sort (fun a b -> compare a.id b.id) l)

(* ------------------------------------------------------------------ *)
(* Welford summaries with log-scale buckets                            *)
(* ------------------------------------------------------------------ *)

(* 4 buckets per decade over [1e-9, 1e3): wide enough for nanosecond
   solver kernels and hundred-second verify phases alike.  Out-of-range
   samples clamp into the end buckets. *)
let n_buckets = 48
let bucket_le i = 10. ** (-9. +. (float_of_int (i + 1) /. 4.))

let bucket_of x =
  if not (x > 0.) then 0
  else begin
    let b = int_of_float (Float.floor (4. *. (Float.log10 x +. 9.))) in
    if b < 0 then 0 else if b > n_buckets - 1 then n_buckets - 1 else b
  end

type wf = {
  mutable n : int;
  mutable mean : float;
  mutable m2 : float;
  mutable sum : float;
  mutable lo : float;
  mutable hi : float;
  buckets : int array;
}

let wf_create () =
  {
    n = 0;
    mean = 0.;
    m2 = 0.;
    sum = 0.;
    lo = infinity;
    hi = neg_infinity;
    buckets = Array.make n_buckets 0;
  }

let wf_add w x =
  w.n <- w.n + 1;
  let delta = x -. w.mean in
  w.mean <- w.mean +. (delta /. float_of_int w.n);
  w.m2 <- w.m2 +. (delta *. (x -. w.mean));
  w.sum <- w.sum +. x;
  if x < w.lo then w.lo <- x;
  if x > w.hi then w.hi <- x;
  let b = bucket_of x in
  w.buckets.(b) <- w.buckets.(b) + 1

(* Chan's parallel-merge update for the streaming moments. *)
let wf_merge ~into:a b =
  if b.n > 0 then begin
    if a.n = 0 then begin
      a.n <- b.n;
      a.mean <- b.mean;
      a.m2 <- b.m2;
      a.sum <- b.sum;
      a.lo <- b.lo;
      a.hi <- b.hi
    end
    else begin
      let na = float_of_int a.n and nb = float_of_int b.n in
      let delta = b.mean -. a.mean in
      a.m2 <- a.m2 +. b.m2 +. (delta *. delta *. na *. nb /. (na +. nb));
      a.mean <- a.mean +. (delta *. nb /. (na +. nb));
      a.n <- a.n + b.n;
      a.sum <- a.sum +. b.sum;
      if b.lo < a.lo then a.lo <- b.lo;
      if b.hi > a.hi then a.hi <- b.hi
    end;
    Array.iteri (fun i c -> a.buckets.(i) <- a.buckets.(i) + c) b.buckets
  end

(* ------------------------------------------------------------------ *)
(* Sinks                                                               *)
(* ------------------------------------------------------------------ *)

type sink = {
  mutable counts : int array; (* indexed by metric id *)
  mutable gvals : float array;
  mutable gset : bool array;
  mutable wfs : wf option array;
  spans : (string, wf) Hashtbl.t;
  mutable stack : string list; (* current span paths, innermost first *)
}

let sink_create () =
  {
    counts = [||];
    gvals = [||];
    gset = [||];
    wfs = [||];
    spans = Hashtbl.create 16;
    stack = [];
  }

(* Grow the id-indexed arrays to cover the whole registry.  Metrics are
   only ever added, so a length check suffices. *)
let ensure s =
  let m = !metric_count in
  if Array.length s.counts < m then begin
    let counts = Array.make m 0 in
    Array.blit s.counts 0 counts 0 (Array.length s.counts);
    s.counts <- counts;
    let gvals = Array.make m 0. in
    Array.blit s.gvals 0 gvals 0 (Array.length s.gvals);
    s.gvals <- gvals;
    let gset = Array.make m false in
    Array.blit s.gset 0 gset 0 (Array.length s.gset);
    s.gset <- gset;
    let wfs = Array.make m None in
    Array.blit s.wfs 0 wfs 0 (Array.length s.wfs);
    s.wfs <- wfs
  end

let sink_clear s =
  Array.fill s.counts 0 (Array.length s.counts) 0;
  Array.fill s.gvals 0 (Array.length s.gvals) 0.;
  Array.fill s.gset 0 (Array.length s.gset) false;
  Array.fill s.wfs 0 (Array.length s.wfs) None;
  Hashtbl.reset s.spans
(* the span stack belongs to control flow, not recorded data *)

let sink_merge ~into:dst src =
  ensure dst;
  ensure src;
  Array.iteri
    (fun i c -> if c <> 0 then dst.counts.(i) <- dst.counts.(i) + c)
    src.counts;
  Array.iteri
    (fun i set ->
      if set then begin
        dst.gvals.(i) <- src.gvals.(i);
        dst.gset.(i) <- true
      end)
    src.gset;
  Array.iteri
    (fun i w ->
      match w with
      | None -> ()
      | Some w -> (
        match dst.wfs.(i) with
        | Some d -> wf_merge ~into:d w
        | None ->
          let d = wf_create () in
          wf_merge ~into:d w;
          dst.wfs.(i) <- Some d))
    src.wfs;
  Hashtbl.iter
    (fun path w ->
      match Hashtbl.find_opt dst.spans path with
      | Some d -> wf_merge ~into:d w
      | None ->
        let d = wf_create () in
        wf_merge ~into:d w;
        Hashtbl.add dst.spans path d)
    src.spans

let dls_key = Domain.DLS.new_key sink_create
let local () = Domain.DLS.get dls_key

let global_lock = Mutex.create ()
let global = sink_create ()

let flush_domain () =
  let s = local () in
  with_lock global_lock (fun () -> sink_merge ~into:global s);
  sink_clear s

(* ------------------------------------------------------------------ *)
(* Switch + recording                                                  *)
(* ------------------------------------------------------------------ *)

(* Plain ref, written only from enable/disable: the hot-path read is a
   single load.  Cross-domain visibility is best-effort by design —
   workloads flip the switch before spawning workers. *)
let on = ref false

let enable () = on := true
let disable () = on := false

let reset () =
  sink_clear (local ());
  with_lock global_lock (fun () -> sink_clear global)

let add c k =
  if !on then begin
    let s = local () in
    ensure s;
    s.counts.(c.id) <- s.counts.(c.id) + k
  end

let incr c = add c 1

let set g v =
  if !on then begin
    let s = local () in
    ensure s;
    s.gvals.(g.id) <- v;
    s.gset.(g.id) <- true
  end

let wf_for s (h : metric) =
  ensure s;
  match s.wfs.(h.id) with
  | Some w -> w
  | None ->
    let w = wf_create () in
    s.wfs.(h.id) <- Some w;
    w

let observe h x = if !on then wf_add (wf_for (local ()) h) x

let time h f =
  if not !on then f ()
  else begin
    let t0 = now () in
    Fun.protect ~finally:(fun () -> observe h (now () -. t0)) f
  end

let span_wf s path =
  match Hashtbl.find_opt s.spans path with
  | Some w -> w
  | None ->
    let w = wf_create () in
    Hashtbl.add s.spans path w;
    w

let span name f =
  if not !on then f ()
  else begin
    let s = local () in
    let path =
      match s.stack with [] -> name | parent :: _ -> parent ^ "/" ^ name
    in
    s.stack <- path :: s.stack;
    let t0 = now () in
    Fun.protect
      ~finally:(fun () ->
        (match s.stack with _ :: tl -> s.stack <- tl | [] -> ());
        wf_add (span_wf s path) (now () -. t0))
      f
  end

(* ------------------------------------------------------------------ *)
(* Snapshots                                                           *)
(* ------------------------------------------------------------------ *)

type summary = {
  s_count : int;
  s_mean : float;
  s_std : float;
  s_min : float;
  s_max : float;
  s_sum : float;
  s_buckets : (float * int) list;
}

type snapshot = {
  counters : (string * int) list;
  gauges : (string * float) list;
  histograms : (string * summary) list;
  spans : (string * summary) list;
}

let summary_of (w : wf) =
  {
    s_count = w.n;
    s_mean = (if w.n = 0 then 0. else w.mean);
    s_std = (if w.n < 2 then 0. else Float.sqrt (w.m2 /. float_of_int (w.n - 1)));
    s_min = (if w.n = 0 then 0. else w.lo);
    s_max = (if w.n = 0 then 0. else w.hi);
    s_sum = w.sum;
    s_buckets =
      Array.to_list w.buckets
      |> List.mapi (fun i c -> (bucket_le i, c))
      |> List.filter (fun (_, c) -> c > 0);
  }

let snapshot () =
  flush_domain ();
  let metrics = all_metrics () in
  with_lock global_lock (fun () ->
      ensure global;
      let by_name_order sel =
        List.sort (fun (a, _) (b, _) -> String.compare a b) sel
      in
      let counters =
        List.filter_map
          (fun m ->
            if m.kind = Counter && global.counts.(m.id) <> 0 then
              Some (m.name, global.counts.(m.id))
            else None)
          metrics
        |> by_name_order
      in
      let gauges =
        List.filter_map
          (fun m ->
            if m.kind = Gauge && global.gset.(m.id) then
              Some (m.name, global.gvals.(m.id))
            else None)
          metrics
        |> by_name_order
      in
      let histograms =
        List.filter_map
          (fun m ->
            match (m.kind, global.wfs.(m.id)) with
            | Histogram, Some w when w.n > 0 -> Some (m.name, summary_of w)
            | _ -> None)
          metrics
        |> by_name_order
      in
      let spans =
        Hashtbl.fold
          (fun path w acc -> (path, summary_of w) :: acc)
          global.spans []
        |> by_name_order
      in
      { counters; gauges; histograms; spans })

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let eng v =
  (* Engineering-ish formatting without depending on Ape_util (which
     sits above this library). *)
  let a = Float.abs v in
  if a = 0. then "0"
  else if a >= 1e9 then Printf.sprintf "%.3g G" (v /. 1e9)
  else if a >= 1e6 then Printf.sprintf "%.3g M" (v /. 1e6)
  else if a >= 1e3 then Printf.sprintf "%.3g k" (v /. 1e3)
  else if a >= 1. then Printf.sprintf "%.4g" v
  else if a >= 1e-3 then Printf.sprintf "%.3g m" (v *. 1e3)
  else if a >= 1e-6 then Printf.sprintf "%.3g u" (v *. 1e6)
  else if a >= 1e-9 then Printf.sprintf "%.3g n" (v *. 1e9)
  else Printf.sprintf "%.3g" v

let render t =
  let b = Buffer.create 2048 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  if t.counters <> [] then begin
    pf "counters:\n";
    List.iter (fun (n, v) -> pf "  %-36s %12d\n" n v) t.counters
  end;
  if t.gauges <> [] then begin
    pf "gauges:\n";
    List.iter (fun (n, v) -> pf "  %-36s %12s\n" n (eng v)) t.gauges
  end;
  if t.histograms <> [] then begin
    pf "histograms:%45s\n" "count        mean         std         max";
    List.iter
      (fun (n, s) ->
        pf "  %-36s %8d %11s %11s %11s\n" n s.s_count (eng s.s_mean)
          (eng s.s_std) (eng s.s_max))
      t.histograms
  end;
  if t.spans <> [] then begin
    pf "spans:%51s\n" "count     total s        mean         max";
    List.iter
      (fun (path, s) ->
        let depth =
          String.fold_left (fun d c -> if c = '/' then d + 1 else d) 0 path
        in
        let leaf =
          match String.rindex_opt path '/' with
          | Some i -> String.sub path (i + 1) (String.length path - i - 1)
          | None -> path
        in
        let label = String.make (2 * depth) ' ' ^ leaf in
        pf "  %-36s %8d %11.3f %11s %11s\n" label s.s_count s.s_sum
          (eng s.s_mean) (eng s.s_max))
      t.spans
  end;
  if
    t.counters = [] && t.gauges = [] && t.histograms = [] && t.spans = []
  then pf "no observations recorded (was the registry enabled?)\n";
  Buffer.contents b

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let json_float v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let render_json t =
  let b = Buffer.create 4096 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  let list items f =
    List.iteri
      (fun i x ->
        if i > 0 then pf ",";
        f x)
      items
  in
  pf "{\n  \"schema\": \"ape-obs/1\",\n  \"counters\": [";
  list t.counters (fun (n, v) ->
      pf "\n    {\"name\": \"%s\", \"value\": %d}" (json_escape n) v);
  pf "\n  ],\n  \"gauges\": [";
  list t.gauges (fun (n, v) ->
      pf "\n    {\"name\": \"%s\", \"value\": %s}" (json_escape n)
        (json_float v));
  pf "\n  ],\n  \"histograms\": [";
  list t.histograms (fun (n, s) ->
      pf
        "\n    {\"name\": \"%s\", \"count\": %d, \"mean\": %s, \"std\": %s, \
         \"min\": %s, \"max\": %s, \"sum\": %s, \"buckets\": ["
        (json_escape n) s.s_count (json_float s.s_mean) (json_float s.s_std)
        (json_float s.s_min) (json_float s.s_max) (json_float s.s_sum);
      list s.s_buckets (fun (le, c) ->
          pf "{\"le\": %s, \"count\": %d}" (json_float le) c);
      pf "]}");
  pf "\n  ],\n  \"spans\": [";
  list t.spans (fun (path, s) ->
      pf
        "\n    {\"path\": \"%s\", \"count\": %d, \"total_s\": %s, \"mean_s\": \
         %s, \"std_s\": %s, \"min_s\": %s, \"max_s\": %s}"
        (json_escape path) s.s_count (json_float s.s_sum)
        (json_float s.s_mean) (json_float s.s_std) (json_float s.s_min)
        (json_float s.s_max));
  pf "\n  ]\n}\n";
  Buffer.contents b
