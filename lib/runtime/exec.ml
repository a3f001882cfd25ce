type phase_stat = {
  label : string;
  n_instances : int;
  n_units : int;
  loads : int array;
  busy : float array;
  alloc : float array;
  seconds : float;
}

type timed = { store : Arrays.t; seconds : float; phase_stats : phase_stat list }

let task_len_hist = Obs.Histogram.make "exec.task_len"
let task_ns_hist = Obs.Histogram.make "exec.task_ns"

(* ---- chunk building --------------------------------------------------- *)

(* A chunk addresses a contiguous instance range — a DOALL block ([c_id]
   the block ordinal) or a whole sequential task ([c_id] the task index;
   for REC plans the recurrence-chain id, which the per-task spans carry
   so barrier stragglers stay attributable to a chain).  Chunks are
   descriptors over the phase's instance arrays: building them copies no
   instance data. *)
type chunk = { c_id : int; c_off : int; c_len : int }

(* [k] near-equal contiguous ranges over [n] DOALL instances (never an
   empty range: [k] is clamped to [n]). *)
let doall_chunk_ranges ~chunks n =
  if n <= 0 then [||]
  else
    let k = min (max 1 chunks) n in
    Array.init k (fun t ->
        let lo = t * n / k and hi = (t + 1) * n / k in
        { c_id = t; c_off = lo; c_len = hi - lo })

(* The chunk policy, in drain order.  DOALL blocks are sized
   cost-proportionally by {!Sim.doall_chunk_count} (a single block on one
   domain).  Empty tasks are dropped; when several domains share the
   rest they are sorted longest first (ties by ascending id), so the
   chain that bounds the barrier starts first. *)
let chunks_of ~cost ~threads = function
  | Sched.Doall { instances; _ } ->
      let n = Array.length instances in
      doall_chunk_ranges ~chunks:(Sim.doall_chunk_count cost ~threads ~n) n
  | Sched.Tasks { tasks; _ } ->
      let chunks =
        Array.of_list
          (List.filter
             (fun c -> c.c_len > 0)
             (List.init (Array.length tasks) (fun u ->
                  { c_id = u; c_off = 0; c_len = Array.length tasks.(u) })))
      in
      if threads > 1 then
        Array.sort
          (fun a b ->
            let c = compare b.c_len a.c_len in
            if c <> 0 then c else compare a.c_id b.c_id)
          chunks;
      chunks

(* Executes one chunk's instances through the compiled kernels. *)
let chunk_runner compiled = function
  | Sched.Doall { instances; _ } ->
      fun c ->
        for i = c.c_off to c.c_off + c.c_len - 1 do
          Compile.exec_instance compiled instances.(i)
        done
  | Sched.Tasks { tasks; _ } ->
      fun c ->
        let t = tasks.(c.c_id) in
        for i = c.c_off to c.c_off + c.c_len - 1 do
          Compile.exec_instance compiled t.(i)
        done

(* ---- instrumented chunk execution ------------------------------------ *)

(* Runs the chunks [iter_chunks] yields to this domain and returns the
   seconds it was busy, the words it allocated (an {!Obs.Gcstats.mark}
   reading taken inside the executing domain: O(1) and exact for this
   domain's work) and the instances it executed.  With a log attached
   each chunk gets a span carrying the per-chunk sample {!Obs.Critpath}
   consumes: [("phase", label)], [(kind, id)] and [("len", points)]. *)
let run_chunks ~label ~kind run iter_chunks =
  let gc0 = Obs.Gcstats.mark () in
  let t0 = Obs.Clock.now_ns () in
  let load = ref 0 in
  if not (Obs.Event.enabled (Obs.Event.ambient ())) then
    iter_chunks (fun c ->
        load := !load + c.c_len;
        run c)
  else
    Obs.Span.with_ ~name:("bucket:" ^ label) (fun () ->
        iter_chunks (fun c ->
            load := !load + c.c_len;
            let s0 = Obs.Clock.now_ns () in
            Obs.Span.with_ ~name:"task"
              ~args:
                [
                  ("phase", label);
                  (kind, string_of_int c.c_id);
                  ("len", string_of_int c.c_len);
                ]
              (fun () -> run c);
            Obs.Histogram.observe task_len_hist c.c_len;
            Obs.Histogram.observe task_ns_hist
              (Int64.to_int (Int64.sub (Obs.Clock.now_ns ()) s0))));
  let busy = Obs.Clock.elapsed_s t0 in
  let words = Obs.Gcstats.words_since gc0 in
  (busy, words, !load)

(* The single execution path: every phase, sequential or parallel, goes
   through here, so instrumentation (per-phase wall time and per-domain
   load/busy time) is measured on exactly the code that runs.  Every
   executing domain drains one atomic cursor over the phase's chunk
   array, so a late-waking or straggling domain simply takes fewer
   chunks.  Sequential runs ([pool] = [None]) drain it on the calling
   domain; parallel work is handed to the persistent [pool], and the
   return from {!Workers.run} is the inter-phase barrier. *)
let run_phase_timed ~pool ~cost compiled ~threads phase =
  let label = Sched.phase_label phase in
  let kind =
    match phase with Sched.Doall _ -> "block" | Sched.Tasks _ -> "chain"
  in
  let run = chunk_runner compiled phase in
  let t0 = Obs.Clock.now_ns () in
  let chunks = chunks_of ~cost ~threads phase in
  let n_chunks = Array.length chunks in
  let next = Atomic.make 0 in
  let drain () =
    run_chunks ~label ~kind run (fun f ->
        let rec go () =
          let k = Atomic.fetch_and_add next 1 in
          if k < n_chunks then begin
            f chunks.(k);
            go ()
          end
        in
        go ())
  in
  let stats =
    match pool with
    | None -> [| drain () |]
    (* Hand the pool only domains that will find work: an idle drainer
       would pay the queue round-trip for nothing. *)
    | Some _ when n_chunks = 0 -> [||]
    | Some pool ->
        Workers.run pool (Array.make (min threads n_chunks) drain)
  in
  {
    label;
    n_instances = Sched.phase_size phase;
    n_units = n_chunks;
    loads = Array.map (fun (_, _, l) -> l) stats;
    busy = Array.map (fun (b, _, _) -> b) stats;
    alloc = Array.map (fun (_, w, _) -> w) stats;
    seconds = Obs.Clock.elapsed_s t0;
  }

let run_timed ?(cost = Sim.base_seconds) ?workers ?store env ~threads s =
  let threads = max 1 threads in
  let store =
    match store with Some st -> st | None -> Interp.scan_bounds env
  in
  (* Kernel compilation happens outside the timed region, like store
     setup: [seconds] measures execution of the hot loop. *)
  let compiled =
    Obs.Span.with_ ~name:"compile" (fun () -> Compile.program env store)
  in
  let pool, owned =
    if threads = 1 then (None, false)
    else
      match workers with
      | Some w -> (Some w, false)
      | None -> (Some (Workers.create ~domains:threads), true)
  in
  Fun.protect
    ~finally:(fun () -> if owned then Option.iter Workers.shutdown pool)
    (fun () ->
      let t0 = Obs.Clock.now_ns () in
      let phase_stats =
        List.map
          (fun phase ->
            Obs.Span.with_ ~name:("phase:" ^ Sched.phase_label phase)
              (fun () -> run_phase_timed ~pool ~cost compiled ~threads phase))
          s.Sched.phases
      in
      { store; seconds = Obs.Clock.elapsed_s t0; phase_stats })

let run ?cost env ~threads s = (run_timed ?cost env ~threads s).store

let check ?cost env ~threads s =
  let seq = Interp.run_sequential env in
  let got = run ?cost env ~threads s in
  if Arrays.equal seq got then Ok ()
  else
    Error
      (Printf.sprintf "parallel execution diverged (max abs diff %g)"
         (Arrays.max_abs_diff seq got))

let thread_loads timed ~threads =
  let threads = max 1 threads in
  let acc = Array.make threads 0 in
  List.iter
    (fun ps ->
      (* A phase may have used more buckets than [threads] (e.g. stats
         taken with a smaller thread count than the run): fold the
         overflow into the last slot instead of dropping it. *)
      Array.iteri
        (fun k l -> acc.(min k (threads - 1)) <- acc.(min k (threads - 1)) + l)
        ps.loads)
    timed.phase_stats;
  acc

(* Exposed for tests. *)
let doall_chunks ~chunks n =
  Array.to_list
    (Array.map (fun c -> (c.c_off, c.c_len)) (doall_chunk_ranges ~chunks n))
