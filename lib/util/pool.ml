exception Cancelled

let recommended_jobs () = Domain.recommended_domain_count ()

let c_maps = Ape_obs.counter "pool.maps"
let c_spawns = Ape_obs.counter "pool.domain_spawns"
let c_tasks = Ape_obs.counter "pool.tasks"
let c_pools = Ape_obs.counter "pool.creates"
let c_cancelled = Ape_obs.counter "pool.cancelled_tasks"

(* ------------------------------------------------------------------ *)
(* Persistent pool: long-lived worker domains draining a job queue.    *)
(* ------------------------------------------------------------------ *)

type 'a outcome = Pending | Returned of 'a | Raised of exn

type 'a task = {
  t_lock : Mutex.t;
  t_done : Condition.t;
  mutable t_outcome : 'a outcome;
}

(* A queued job is the pair of continuations submit built around the
   user thunk: [run] computes and publishes the outcome, [cancel]
   publishes [Raised Cancelled] without running the thunk.  Neither
   ever raises. *)
type job = { run : unit -> unit; cancel : unit -> unit }

type t = {
  p_lock : Mutex.t;
  p_wake : Condition.t;  (* signalled on submit and on shutdown *)
  p_queue : job Queue.t;
  mutable p_open : bool;  (* accepting submissions *)
  mutable p_domains : unit Domain.t array;
}

let with_lock m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

(* Worker loop: pop-run until the pool is closed AND the queue is
   drained.  A job never raises (submit wraps the thunk), so a raise in
   user code can neither kill a worker nor deadlock a join. *)
let rec worker_loop pool =
  Mutex.lock pool.p_lock;
  while Queue.is_empty pool.p_queue && pool.p_open do
    Condition.wait pool.p_wake pool.p_lock
  done;
  match Queue.take_opt pool.p_queue with
  | Some job ->
    Mutex.unlock pool.p_lock;
    job.run ();
    worker_loop pool
  | None ->
    (* closed and drained *)
    Mutex.unlock pool.p_lock

let create ~workers =
  let workers = Int.max 0 workers in
  Ape_obs.incr c_pools;
  let pool =
    {
      p_lock = Mutex.create ();
      p_wake = Condition.create ();
      p_queue = Queue.create ();
      p_open = true;
      p_domains = [||];
    }
  in
  pool.p_domains <-
    Array.init workers (fun _ ->
        Ape_obs.incr c_spawns;
        Domain.spawn (fun () ->
            (* Merge this worker's observability sink into the global
               accumulator whether or not a job raised through [run]
               (it cannot) or the loop itself fails, so joined pools
               aggregate every recorded metric. *)
            Fun.protect ~finally:Ape_obs.flush_domain (fun () ->
                worker_loop pool)));
  pool

let publish task outcome =
  with_lock task.t_lock (fun () ->
      task.t_outcome <- outcome;
      Condition.broadcast task.t_done)

let submit pool f =
  Ape_obs.incr c_tasks;
  let task =
    { t_lock = Mutex.create (); t_done = Condition.create (); t_outcome = Pending }
  in
  let run () =
    let outcome = match f () with v -> Returned v | exception e -> Raised e in
    publish task outcome
  in
  if Array.length pool.p_domains = 0 then
    (* No workers: run inline so await can never block forever. *)
    run ()
  else begin
    let accepted =
      with_lock pool.p_lock (fun () ->
          if pool.p_open then begin
            Queue.add
              { run; cancel = (fun () ->
                    Ape_obs.incr c_cancelled;
                    publish task (Raised Cancelled)) }
              pool.p_queue;
            Condition.signal pool.p_wake;
            true
          end
          else false)
    in
    if not accepted then invalid_arg "Pool.submit: pool is shut down"
  end;
  task

let await task =
  let outcome =
    with_lock task.t_lock (fun () ->
        while match task.t_outcome with Pending -> true | _ -> false do
          Condition.wait task.t_done task.t_lock
        done;
        task.t_outcome)
  in
  match outcome with
  | Returned v -> v
  | Raised e -> raise e
  | Pending -> assert false

(* Only the first shutdown closes the pool and joins the workers:
   [Domain.join] raises on a second join, and the daemon signal path
   (serve's SIGINT handler racing the normal exit path) legitimately
   calls shutdown twice.  [p_open = false] doubles as the
   shutdown-started marker — nothing else ever clears it. *)
let shutdown ?(cancel_pending = false) pool =
  let cancelled, first =
    with_lock pool.p_lock (fun () ->
        if not pool.p_open then ([], false)
        else begin
          pool.p_open <- false;
          let cancelled =
            if cancel_pending then begin
              let jobs = List.of_seq (Queue.to_seq pool.p_queue) in
              Queue.clear pool.p_queue;
              jobs
            end
            else []
          in
          Condition.broadcast pool.p_wake;
          (cancelled, true)
        end)
  in
  if first then begin
    List.iter (fun job -> job.cancel ()) cancelled;
    Array.iter Domain.join pool.p_domains
  end

let with_pool ~workers f =
  let pool = create ~workers in
  match f pool with
  | v ->
    shutdown pool;
    v
  | exception e ->
    (* The body failed: don't run work it will never collect. *)
    shutdown ~cancel_pending:true pool;
    raise e

(* ------------------------------------------------------------------ *)
(* Deterministic parallel map, expressed over the persistent pool.     *)
(* ------------------------------------------------------------------ *)

(* Fixed contiguous chunks rather than work stealing: task cost is
   near-uniform for the workloads this pool serves (same measurement on
   perturbed parameters, same solve on different frequencies), so static
   partitioning loses little balance and keeps the execution plan a pure
   function of (n, jobs) — nothing about scheduling can leak into
   results. *)
let chunk_bounds ~jobs n =
  let jobs = Int.max 1 (Int.min jobs n) in
  let base = n / jobs and rem = n mod jobs in
  Array.init jobs (fun k ->
      let lo = (k * base) + Int.min k rem in
      let len = base + if k < rem then 1 else 0 in
      (lo, len))

let map ~jobs n f =
  if n < 0 then invalid_arg "Pool.map: negative length";
  Ape_obs.incr c_maps;
  Ape_obs.add c_tasks n;
  if n = 0 then [||]
  else if jobs <= 1 || n = 1 then Array.init n f
  else begin
    let results = Array.make n None in
    let fill (lo, len) =
      for i = lo to lo + len - 1 do
        results.(i) <- Some (f i)
      done
    in
    let chunks = chunk_bounds ~jobs n in
    with_pool ~workers:(Array.length chunks - 1) (fun pool ->
        let tasks =
          Array.init
            (Array.length chunks - 1)
            (fun k -> submit pool (fun () -> fill chunks.(k + 1)))
        in
        (* The calling domain works too; collect the first exception from
           any chunk but always await every task so no result is torn. *)
        let main_exn =
          match fill chunks.(0) with () -> None | exception e -> Some e
        in
        let first_exn =
          Array.fold_left
            (fun acc t ->
              match await t with
              | () -> acc
              | exception e -> (match acc with None -> Some e | some -> some))
            main_exn tasks
        in
        match first_exn with Some e -> raise e | None -> ());
    Array.map
      (function Some v -> v | None -> assert false (* every index filled *))
      results
  end
