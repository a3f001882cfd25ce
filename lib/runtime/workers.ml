let spawned_counter = Obs.Counter.make "runtime.workers.spawned"
let runs_counter = Obs.Counter.make "runtime.workers.runs"

(* Per-domain job accounting: every executed run thunk is attributed to
   exactly one side — [jobs_stolen] when a helper domain popped it,
   [jobs_caller] when the submitting caller ran it (its own first thunk,
   or a queued job it drained while waiting) — so
   jobs = jobs_stolen + jobs_caller holds on a quiescent pool.  The
   histograms measure scheduling latency: [queue_wait_us] from a job's
   enqueue to its dequeue, [barrier_wait_us] the time a caller spends
   blocked at the completion barrier after running out of queued work.
   Admitted jobs are counted apart: each ends as one [completed] or one
   [panics], and [queue_depth] samples the admission queue per submit. *)
let jobs_counter = Obs.Counter.make "runtime.workers.jobs"
let stolen_counter = Obs.Counter.make "runtime.workers.jobs_stolen"
let caller_counter = Obs.Counter.make "runtime.workers.jobs_caller"
let completed_counter = Obs.Counter.make "runtime.workers.completed"
let panics_counter = Obs.Counter.make "runtime.workers.panics"
let queue_wait_hist = Obs.Histogram.make "runtime.workers.queue_wait_us"
let barrier_wait_hist = Obs.Histogram.make "runtime.workers.barrier_wait_us"
let queue_depth_hist = Obs.Histogram.make "runtime.workers.queue_depth"

let elapsed_us t0 =
  Int64.to_int (Int64.div (Int64.sub (Obs.Clock.now_ns ()) t0) 1000L)

exception Closed

type admitted = { ctx : Obs.Ctx.t option; job : unit -> unit }

type t = {
  m : Mutex.t;
  work : Condition.t;  (* a job was queued, or the pool is closing *)
  not_full : Condition.t;  (* an admission slot freed, or closing *)
  runq : (unit -> unit) Queue.t;  (* [run]'s barrier jobs *)
  admq : admitted Queue.t;  (* at most [capacity] admitted jobs *)
  capacity : int;
  n_domains : int;
  n_spawned : int;
  mutable closing : bool;
  mutable helpers : unit Domain.t list;
}

let domains t = t.n_domains
let spawned t = t.n_spawned
let capacity t = t.capacity

let locked t f =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

let queue_length t = locked t (fun () -> Queue.length t.admq)
let alive t = locked t (fun () -> not t.closing)

(* The submitter's request context covers the dequeue event, the job
   and any panic event: everything this job emits is attributed to its
   request.  Installing [None] explicitly keeps a context-free job from
   inheriting the previous job's. *)
let run_admitted wid { ctx; job } =
  Obs.Ctx.with_opt ctx (fun () ->
      Obs.Event.emit ~severity:Obs.Event.Debug ~scope:"runtime"
        ~name:"workers.dequeue" (fun () -> [ ("worker", Obs.Event.Int wid) ]);
      match job () with
      | () -> Obs.Counter.incr completed_counter
      | exception e ->
          Obs.Counter.incr panics_counter;
          Obs.Event.emit ~severity:Obs.Event.Warn ~scope:"runtime"
            ~name:"workers.panic" (fun () ->
              [
                ("worker", Obs.Event.Int wid);
                ("exn", Obs.Event.Str (Printexc.to_string e));
              ]))

(* Drain-then-exit helper: keeps popping while jobs remain, even after
   [closing] is set, so shutdown never drops a queued job.  Run jobs go
   first: a [run] caller's barrier may be waiting on them, while an
   admitted job only waits for a free domain. *)
let rec helper t wid =
  Mutex.lock t.m;
  while Queue.is_empty t.runq && Queue.is_empty t.admq && not t.closing do
    Condition.wait t.work t.m
  done;
  match Queue.take_opt t.runq with
  | Some job ->
      Mutex.unlock t.m;
      Obs.Counter.incr stolen_counter;
      job ();
      helper t wid
  | None -> (
      match Queue.take_opt t.admq with
      | Some a ->
          Condition.signal t.not_full;
          Mutex.unlock t.m;
          run_admitted wid a;
          helper t wid
      | None -> Mutex.unlock t.m)

let make ~queue_capacity ~domains ~spawn =
  if queue_capacity < 1 then
    invalid_arg "Workers: queue_capacity must be >= 1";
  let t =
    {
      m = Mutex.create ();
      work = Condition.create ();
      not_full = Condition.create ();
      runq = Queue.create ();
      admq = Queue.create ();
      capacity = queue_capacity;
      n_domains = domains;
      n_spawned = spawn;
      closing = false;
      helpers = [];
    }
  in
  t.helpers <-
    List.init spawn (fun wid ->
        Obs.Counter.incr spawned_counter;
        Domain.spawn (fun () -> helper t wid));
  t

let create ~domains =
  if domains < 1 then invalid_arg "Workers.create: domains must be >= 1";
  make ~queue_capacity:64 ~domains ~spawn:(domains - 1)

let spawn ?(queue_capacity = 64) ~domains () =
  if domains < 1 then invalid_arg "Workers.spawn: domains must be >= 1";
  make ~queue_capacity ~domains ~spawn:domains

let run t thunks =
  Obs.Counter.incr runs_counter;
  let n = Array.length thunks in
  Obs.Counter.add jobs_counter n;
  if n = 0 then [||]
  else if n = 1 then begin
    Obs.Counter.incr caller_counter;
    [| thunks.(0) () |]
  end
  else begin
    let results = Array.make n None in
    (* Jobs handed to helper domains run under the submitter's request
       context, so spans/events they emit keep the originating trace id.
       (The caller's own thunk already runs with it installed.) *)
    let ctx = Obs.Ctx.current () in
    (* Always install (even [None]): the domain draining this job may be a
       caller from a concurrent [run] with its own context, which must not
       leak into someone else's thunk. *)
    let wrap f = Obs.Ctx.with_opt ctx f in
    (* Call-local barrier state: jobs of concurrent [run] calls share the
       run queue but complete against their own counter. *)
    let cm = Mutex.create () in
    let all_done = Condition.create () in
    let remaining = ref (n - 1) in
    let error = ref None in
    let record_error e =
      Mutex.lock cm;
      if !error = None then error := Some e;
      Mutex.unlock cm
    in
    let enq_ns = Obs.Clock.now_ns () in
    let job i () =
      Obs.Histogram.observe queue_wait_hist (elapsed_us enq_ns);
      (match wrap (fun () -> results.(i) <- Some (thunks.(i) ())) with
      | () -> ()
      | exception e -> record_error e);
      Mutex.lock cm;
      decr remaining;
      if !remaining = 0 then Condition.broadcast all_done;
      Mutex.unlock cm
    in
    Mutex.lock t.m;
    for i = 1 to n - 1 do
      Queue.push (job i) t.runq
    done;
    Condition.broadcast t.work;
    Mutex.unlock t.m;
    (* The caller is a worker too: run the first thunk here, then help
       drain the run queue until this call's jobs are all accounted for.
       It never takes an admitted job, which may block (the drain rule in
       workers.mli). *)
    Obs.Counter.incr caller_counter;
    (match thunks.(0) () with
    | v -> results.(0) <- Some v
    | exception e -> record_error e);
    let rec drain () =
      Mutex.lock cm;
      let pending = !remaining > 0 in
      Mutex.unlock cm;
      if pending then begin
        Mutex.lock t.m;
        let next = Queue.take_opt t.runq in
        Mutex.unlock t.m;
        match next with
        | Some j ->
            (* A drained job may belong to a concurrent [run]; it still
               ran on a submitting caller, not a pool helper. *)
            Obs.Counter.incr caller_counter;
            j ();
            drain ()
        | None ->
            (* Own jobs are running on other domains: wait them out. *)
            let w0 = Obs.Clock.now_ns () in
            Mutex.lock cm;
            while !remaining > 0 do
              Condition.wait all_done cm
            done;
            Mutex.unlock cm;
            Obs.Histogram.observe barrier_wait_hist (elapsed_us w0)
      end
    in
    drain ();
    (match !error with Some e -> raise e | None -> ());
    Array.map (function Some v -> v | None -> assert false) results
  end

(* Enqueue under [t.m], once the caller has checked for room.  With no
   spawned domain nothing would ever run the job. *)
let enqueue t job =
  if t.n_spawned = 0 then invalid_arg "Workers: the pool spawned no domain";
  Queue.push { ctx = Obs.Ctx.current (); job } t.admq;
  Condition.signal t.work;
  Queue.length t.admq

let admitted depth =
  Obs.Histogram.observe queue_depth_hist depth;
  Obs.Event.emit ~severity:Obs.Event.Debug ~scope:"runtime"
    ~name:"workers.submit" (fun () -> [ ("depth", Obs.Event.Int depth) ])

let submit t job =
  let depth =
    locked t (fun () ->
        while Queue.length t.admq >= t.capacity && not t.closing do
          Condition.wait t.not_full t.m
        done;
        if t.closing then raise Closed;
        enqueue t job)
  in
  admitted depth

(* Non-blocking admission for the network path: a full queue is the
   load-shedding signal, not something to wait out while a socket reader
   sits blocked.  Returns [false] instead of raising on a closing pool;
   the server turns both into typed error records. *)
let try_submit t job =
  match
    locked t (fun () ->
        if t.closing || Queue.length t.admq >= t.capacity then None
        else Some (enqueue t job))
  with
  | None -> false
  | Some depth ->
      admitted depth;
      true

let shutdown t =
  let first =
    locked t (fun () ->
        let first = not t.closing in
        t.closing <- true;
        Condition.broadcast t.work;
        Condition.broadcast t.not_full;
        first)
  in
  if first then begin
    List.iter Domain.join t.helpers;
    t.helpers <- []
  end
