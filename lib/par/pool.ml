(* A domain pool with a mutex/condition work queue.

   Parallel operations share work through an atomic chunk counter: every
   participant (the caller plus the queued helper closures) repeatedly
   claims the next chunk of indices and writes results straight into the
   output array, so scheduling order can never affect where a result
   lands.  A per-operation latch counts the helpers still running; the
   caller keeps working until the counter is exhausted, then blocks on
   the latch until the last helper drains.

   Failure semantics (DESIGN.md §10): an exception inside mapped work is
   caught on the worker, recorded by chunk index, and re-raised in the
   caller after all in-flight work drains — the queue never deadlocks
   and the pool stays reusable.  A raw exception is wrapped as
   [Po_guard.Po_error.Worker_crash] carrying its chunk; an already-typed
   [Po_error.Error] passes through untouched so inner solver errors keep
   their own provenance. *)

(* Observability (DESIGN.md §11).  The chunk counters live at the
   [run_chunks] level because the chunk layout is a pure function of
   the input length and [chunk_size] — never of the pool — so their
   totals are jobs-invariant.  The gauge and the timing histogram
   describe the machine and are exempt from that contract. *)
let m_chunks_computed = Po_obs.Metrics.counter "pool.chunks_computed"

let m_chunks_cached = Po_obs.Metrics.counter "pool.chunks_cached"

let m_domains = Po_obs.Metrics.gauge "pool.domains"

let m_chunk_s = Po_obs.Metrics.histogram "pool.chunk_s"

(* Supervision counters (DESIGN.md §13).  Retry counts are jobs-invariant
   for deterministic (chunk-keyed) faults; once a breaker opens, which
   chunks were still unclaimed — and therefore how many run degraded —
   depends on scheduling, so the degraded counters describe what happened,
   not a reproducible quantity. *)
let m_chunk_retries = Po_obs.Metrics.counter "pool.chunk_retries"

let m_chunks_degraded = Po_obs.Metrics.counter "pool.chunks_degraded"

let m_breaker_trips = Po_obs.Metrics.counter "pool.breaker_trips"

type t = {
  mutable total_domains : int;
  queue : (unit -> unit) Queue.t;
  mutex : Mutex.t;
  wake : Condition.t;  (* signalled on submit and on shutdown *)
  mutable workers : unit Domain.t array;
  mutable closed : bool;
}

let default_domains () = Domain.recommended_domain_count ()

let rec worker_loop pool =
  Mutex.lock pool.mutex;
  while Queue.is_empty pool.queue && not pool.closed do
    Condition.wait pool.wake pool.mutex
  done;
  if Queue.is_empty pool.queue then Mutex.unlock pool.mutex (* closed *)
  else begin
    let job = Queue.pop pool.queue in
    Mutex.unlock pool.mutex;
    (* Jobs never let exceptions escape (see [run_shared]); a raise here
       would take the worker down silently, so treat it as a bug. *)
    job ();
    worker_loop pool
  end

let create ?domains () =
  let requested =
    match domains with None -> default_domains () | Some d -> max 1 d
  in
  let pool =
    { total_domains = requested; queue = Queue.create ();
      mutex = Mutex.create (); wake = Condition.create ();
      workers = [||]; closed = false }
  in
  (* Domain.spawn can fail under resource pressure (the runtime caps
     live domains); a pool that comes up with fewer workers still honours
     every contract — the combinators degrade towards the serial path —
     so spawn failure is a warning, not an error. *)
  let spawned = ref [] in
  (try
     for _ = 2 to requested do
       spawned := Domain.spawn (fun () -> worker_loop pool) :: !spawned
     done
   with exn ->
     Po_guard.Warnings.emit
       (Printf.sprintf
          "Pool.create: domain spawn failed (%s); continuing with %d of %d \
           domains"
          (Printexc.to_string exn)
          (List.length !spawned + 1)
          requested));
  pool.workers <- Array.of_list (List.rev !spawned);
  pool.total_domains <- Array.length pool.workers + 1;
  Po_obs.Metrics.set m_domains (float_of_int pool.total_domains);
  pool

let domains pool = pool.total_domains

let shutdown pool =
  Mutex.lock pool.mutex;
  if pool.closed then Mutex.unlock pool.mutex
  else begin
    pool.closed <- true;
    Condition.broadcast pool.wake;
    Mutex.unlock pool.mutex;
    Array.iter Domain.join pool.workers;
    pool.workers <- [||]
  end

let with_pool ?domains f =
  let pool = create ?domains () in
  Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)

let submit pool job =
  Mutex.lock pool.mutex;
  if pool.closed then begin
    Mutex.unlock pool.mutex;
    invalid_arg "Pool.submit: pool is shut down"
  end;
  Queue.push job pool.queue;
  Condition.signal pool.wake;
  Mutex.unlock pool.mutex

(* Outcome of one parallel operation: the first failure by chunk index,
   so the reported exception does not depend on scheduling. *)
type failure = { chunk_start : int; exn : exn; bt : Printexc.raw_backtrace }

(* Run [work_chunk start stop] over [n] indices in chunks of [chunk] on
   all of the pool's domains; returns once every chunk has finished. *)
let run_shared pool ~n ~chunk work_chunk =
  let next = Atomic.make 0 in
  let failed : failure option Atomic.t = Atomic.make None in
  let record_failure chunk_start exn bt =
    let f = { chunk_start; exn; bt } in
    let rec keep_first () =
      let current = Atomic.get failed in
      let better =
        match current with
        | None -> true
        | Some prior -> chunk_start < prior.chunk_start
      in
      if better && not (Atomic.compare_and_set failed current (Some f)) then
        keep_first ()
    in
    keep_first ();
    (* Abandon unclaimed chunks: drive the counter past the end. *)
    Atomic.set next n
  in
  let rec work () =
    let start = Atomic.fetch_and_add next chunk in
    if start < n then begin
      (try work_chunk start (min n (start + chunk))
       with exn ->
         record_failure start exn (Printexc.get_raw_backtrace ()));
      work ()
    end
  in
  let helpers = max 0 (pool.total_domains - 1) in
  let latch_mutex = Mutex.create () in
  let latch_done = Condition.create () in
  let pending = ref helpers in
  for _ = 1 to helpers do
    submit pool (fun () ->
        work ();
        Mutex.lock latch_mutex;
        decr pending;
        if !pending = 0 then Condition.broadcast latch_done;
        Mutex.unlock latch_mutex)
  done;
  work ();
  Mutex.lock latch_mutex;
  while !pending > 0 do
    Condition.wait latch_done latch_mutex
  done;
  Mutex.unlock latch_mutex;
  match Atomic.get failed with
  | Some { exn = Po_guard.Po_error.Error _ as exn; bt; _ } ->
      (* Typed errors already carry their provenance (the chunked
         combinators stamp the logical chunk index); pass through. *)
      Printexc.raise_with_backtrace exn bt
  | Some { chunk_start; exn; bt } ->
      Printexc.raise_with_backtrace
        (Po_guard.Po_error.Error
           (Po_guard.Po_error.v
              (Po_guard.Po_error.Worker_crash { chunk = chunk_start; exn })))
        bt
  | None -> ()

(* Chunks sized so each domain sees several, amortising queue traffic
   while still balancing uneven per-element cost.  Purely a scheduling
   knob: results are position-addressed, so the size cannot affect
   them. *)
let map_chunk_size ~n ~domains =
  max 1 (n / (4 * max 1 domains))

let parallel_map pool f arr =
  let n = Array.length arr in
  if n = 0 then [||]
  else if pool.total_domains <= 1 || n = 1 then Array.map f arr
  else begin
    let results = Array.make n None in
    let chunk = map_chunk_size ~n ~domains:pool.total_domains in
    run_shared pool ~n ~chunk (fun start stop ->
        for i = start to stop - 1 do
          results.(i) <- Some (f arr.(i))
        done);
    Array.map
      (function Some v -> v | None -> assert false (* run_shared raised *))
      results
  end

let maybe_map pool f arr =
  match pool with
  | None -> Array.map f arr
  | Some pool -> parallel_map pool f arr

let parallel_init pool n f =
  if n < 0 then invalid_arg "Pool.parallel_init: negative length";
  parallel_map pool f (Array.init n Fun.id)

let default_chain_chunk = 16

(* The armed-fault site of the chunked combinators: keyed by the logical
   chunk index, which is a pure function of the input length and
   [chunk_size] — never of the pool — so an injected crash hits the same
   chunk for any worker count, including the serial path. *)
let fire_worker ci =
  if Po_guard.Faultinject.fire Po_guard.Faultinject.Worker ~key:ci then
    Po_guard.Po_error.fail
      ~context:[ ("injected", "worker") ]
      (Po_guard.Po_error.Worker_crash
         { chunk = ci;
           exn =
             Po_guard.Faultinject.Injected_fault
               (Printf.sprintf "worker crash at chunk %d" ci) })

(* The transient-fault site: chunk [ci] crashes on its first n attempts
   (process-wide), then succeeds — what a retry policy must absorb. *)
let fire_flaky ci =
  if Po_guard.Faultinject.fire Po_guard.Faultinject.Flaky ~key:ci then
    Po_guard.Po_error.fail
      ~context:[ ("injected", "flaky") ]
      (Po_guard.Po_error.Worker_crash
         { chunk = ci;
           exn =
             Po_guard.Faultinject.Injected_fault
               (Printf.sprintf "flaky crash at chunk %d" ci) })

(* A stuck worker as the watchdog would report it, without the wait. *)
let fire_timeout ci ~limit =
  if Po_guard.Faultinject.fire Po_guard.Faultinject.Timeout ~key:ci then
    Po_guard.Po_error.fail
      ~context:[ ("injected", "timeout") ]
      (Po_guard.Po_error.Chunk_timeout { chunk = ci; elapsed = limit; limit })

(* A genuinely slow chunk: sleep past the watchdog limit so the real
   elapsed-time path trips. *)
let fire_slow ci ~limit =
  if Po_guard.Faultinject.fire Po_guard.Faultinject.Slow ~key:ci then
    Po_obs.Clock.sleep_s (limit +. 0.01)

(* Outcome of one supervised chunk evaluation on a worker: [Deferred]
   marks a chunk the open breaker routed to the caller's serial
   degraded phase.  Never exposed — resolved before [run_chunks]
   returns. *)
type 'b chunk_outcome = Done of 'b array | Deferred

(* Shared chunk engine of [chunk_map] and [chain_map]: fixed layout,
   optional per-chunk memo ([cached] consulted before computing,
   [on_chunk] told about every freshly computed chunk — the checkpoint
   journal hooks).  A cached chunk of the wrong length is recomputed, so
   a stale or truncated journal can never corrupt a sweep.

   With an {e active} supervision policy (DESIGN.md §13) each fresh
   chunk runs under the retry/breaker/watchdog machinery; an inactive
   policy (the default) takes the original code path untouched, which is
   what keeps the long-standing contract that [worker@k] fails the
   figure unless a caller opts in to retries. *)
let run_chunks ~chunk_size ?(sup = Po_sup.Supervise.default) ?cached
    ?on_chunk pool ~n ~compute =
  if chunk_size <= 0 then invalid_arg "Pool.run_chunks: chunk_size <= 0";
  if n = 0 then [||]
  else if not (Po_sup.Supervise.is_active sup) then begin
    let n_chunks = (n + chunk_size - 1) / chunk_size in
    let eval ci =
      let start = ci * chunk_size in
      let stop = min n (start + chunk_size) in
      let fresh () =
        Po_obs.Metrics.incr m_chunks_computed;
        fire_worker ci;
        let r =
          Po_obs.Metrics.time_s m_chunk_s (fun () ->
              Po_guard.Po_error.with_context
                (fun () -> [ ("chunk", string_of_int ci) ])
                (fun () -> compute ci ~start ~stop))
        in
        (match on_chunk with None -> () | Some h -> h ci r);
        r
      in
      match cached with
      | None -> fresh ()
      | Some lookup -> (
          match lookup ci with
          | Some r when Array.length r = stop - start ->
              Po_obs.Metrics.incr m_chunks_cached;
              r
          | Some _ | None -> fresh ())
    in
    let chunks = maybe_map pool eval (Array.init n_chunks Fun.id) in
    Array.concat (Array.to_list chunks)
  end
  else begin
    let n_chunks = (n + chunk_size - 1) / chunk_size in
    let breaker =
      Po_sup.Breaker.create ~threshold:sup.Po_sup.Supervise.breaker_threshold
    in
    let watchdog =
      Option.map
        (fun limit -> Po_sup.Watchdog.create ~limit)
        sup.Po_sup.Supervise.chunk_timeout
    in
    let budget = sup.Po_sup.Supervise.budget in
    let inj_limit =
      Option.value sup.Po_sup.Supervise.chunk_timeout ~default:0.0
    in
    (* One attempt at computing chunk [ci] fresh.  [degraded] = the
       serial in-caller phase behind an open breaker: the sites that
       model the parallel-worker environment ([worker], [timeout],
       [slow]) and the watchdog are suppressed there — that is what
       lets degradation complete the figure — while [flaky] keeps its
       process-wide attempt count so transient faults behave
       identically in both modes. *)
    let attempt ~degraded ci ~start ~stop =
      Po_obs.Metrics.incr m_chunks_computed;
      if not degraded then begin
        fire_worker ci;
        fire_timeout ci ~limit:inj_limit
      end;
      fire_flaky ci;
      let t0 = Po_obs.Clock.now_s () in
      let r =
        Po_obs.Metrics.time_s m_chunk_s (fun () ->
            Po_guard.Po_error.with_context
              (fun () -> [ ("chunk", string_of_int ci) ])
              (fun () ->
                if not degraded then fire_slow ci ~limit:inj_limit;
                compute ci ~start ~stop))
      in
      if not degraded then
        Po_sup.Watchdog.check_opt watchdog ~chunk:ci
          ~elapsed:(Po_obs.Clock.now_s () -. t0);
      (match on_chunk with None -> () | Some h -> h ci r);
      r
    in
    (* Retry loop on a worker.  Only typed {e retryable} failures
       (Supervise.retryable) re-run — a chunk is a pure function of its
       index, so a re-run replays the same split PRNG stream and
       warm-start chain and is bit-identical.  Everything else
       re-raises for run_shared's first-failure-by-chunk-index
       reporting.  Breaker bookkeeping is per attempt; once it opens
       (and degradation is on) the chunk defers instead of burning the
       remaining retries. *)
    let eval_sup ci =
      let start = ci * chunk_size in
      let stop = min n (start + chunk_size) in
      let cached_hit =
        match cached with
        | None -> None
        | Some lookup -> (
            match lookup ci with
            | Some r when Array.length r = stop - start -> Some r
            | Some _ | None -> None)
      in
      match cached_hit with
      | Some r ->
          Po_obs.Metrics.incr m_chunks_cached;
          Done r
      | None ->
          if Po_sup.Breaker.tripped breaker && sup.Po_sup.Supervise.degrade
          then Deferred
          else begin
            Po_sup.Budget.check_opt budget;
            let rec go attempts_left =
              match
                Po_guard.Po_error.capture (fun () ->
                    attempt ~degraded:false ci ~start ~stop)
              with
              | Ok r ->
                  Po_sup.Breaker.record_success breaker;
                  Done r
              | Error e
                when Po_sup.Supervise.retryable e.Po_guard.Po_error.kind ->
                  let tripped = Po_sup.Breaker.record_failure breaker in
                  if tripped && sup.Po_sup.Supervise.degrade then Deferred
                  else if attempts_left > 0 then begin
                    Po_obs.Metrics.incr m_chunk_retries;
                    Po_sup.Budget.check_opt budget;
                    go (attempts_left - 1)
                  end
                  else raise (Po_guard.Po_error.Error e)
              | Error e -> raise (Po_guard.Po_error.Error e)
            in
            go sup.Po_sup.Supervise.retries
          end
    in
    let outcomes = maybe_map pool eval_sup (Array.init n_chunks Fun.id) in
    let deferred_count =
      Array.fold_left
        (fun acc o -> match o with Deferred -> acc + 1 | Done _ -> acc)
        0 outcomes
    in
    if deferred_count > 0 then begin
      (* Graceful degradation: the breaker opened, so finish the sweep
         serially in the caller rather than failing the figure.  The
         caller is the only domain here, so emitting the warning is
         R7-safe. *)
      Po_obs.Metrics.incr m_breaker_trips;
      Po_guard.Warnings.emit
        (Printf.sprintf
           "Pool.run_chunks: circuit breaker opened after %d consecutive \
            chunk-attempt failures; computing %d chunk(s) serially in the \
            caller"
           (Po_sup.Breaker.threshold breaker)
           deferred_count);
      let rec degraded_go ci ~start ~stop attempts_left =
        match
          Po_guard.Po_error.capture (fun () ->
              attempt ~degraded:true ci ~start ~stop)
        with
        | Ok r -> r
        | Error e
          when Po_sup.Supervise.retryable e.Po_guard.Po_error.kind
               && attempts_left > 0 ->
            Po_obs.Metrics.incr m_chunk_retries;
            Po_sup.Budget.check_opt budget;
            degraded_go ci ~start ~stop (attempts_left - 1)
        | Error e -> raise (Po_guard.Po_error.Error e)
      in
      for ci = 0 to n_chunks - 1 do
        match outcomes.(ci) with
        | Done _ -> ()
        | Deferred ->
            Po_sup.Budget.check_opt budget;
            Po_obs.Metrics.incr m_chunks_degraded;
            let start = ci * chunk_size in
            let stop = min n (start + chunk_size) in
            outcomes.(ci) <-
              Done (degraded_go ci ~start ~stop sup.Po_sup.Supervise.retries)
      done
    end;
    Array.concat
      (Array.to_list
         (Array.map
            (function Done r -> r | Deferred -> assert false (* resolved *))
            outcomes))
  end

let chunk_map ?(chunk_size = default_chain_chunk) ?sup ?cached ?on_chunk pool
    ~f arr =
  run_chunks ~chunk_size ?sup ?cached ?on_chunk pool ~n:(Array.length arr)
    ~compute:(fun _ci ~start ~stop ->
      Array.init (stop - start) (fun k -> f arr.(start + k)))

let chain_map ?(chunk_size = default_chain_chunk) ?sup ?cached ?on_chunk pool
    ~step arr =
  (* The chunk layout is a pure function of [n] and [chunk_size] —
     never of the pool — so every chunk is the same warm-start chain
     whether it runs serially or on any number of domains. *)
  run_chunks ~chunk_size ?sup ?cached ?on_chunk pool ~n:(Array.length arr)
    ~compute:(fun _ci ~start ~stop ->
      let out = Array.make (stop - start) None in
      let prev = ref None in
      for i = start to stop - 1 do
        let r = step !prev arr.(i) in
        out.(i - start) <- Some r;
        prev := Some r
      done;
      Array.map
        (function Some v -> v | None -> assert false (* loop filled all *))
        out)

let default_reduce_chunk = 16

let map_reduce pool ?(chunk_size = default_reduce_chunk) ~rng ~map ~reduce
    ~init arr =
  if chunk_size <= 0 then invalid_arg "Pool.map_reduce: chunk_size <= 0";
  let n = Array.length arr in
  if n = 0 then init
  else begin
    let n_chunks = (n + chunk_size - 1) / chunk_size in
    (* Streams are split off [rng] in chunk-index order *before* any
       parallel work, so the assignment is a pure function of the chunk
       layout. *)
    let chunks =
      Array.init n_chunks (fun i ->
          (i, Array.sub arr (i * chunk_size) (min chunk_size (n - (i * chunk_size)))))
    in
    let streams = Array.make n_chunks rng in
    for i = 0 to n_chunks - 1 do
      streams.(i) <- Po_prng.Splitmix.split rng
    done;
    let mapped =
      parallel_map pool (fun (i, chunk) -> map streams.(i) chunk) chunks
    in
    Array.fold_left reduce init mapped
  end
