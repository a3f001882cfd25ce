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

(* ---- chunks ----------------------------------------------------------- *)

(* A phase split among domains is drained as chunks, each a contiguous
   instance range of the phase's array: a DOALL block or a whole
   sequential task.  A chunk is named by its place in the drain order and
   found from it in O(1), so chunking copies no instance and builds no
   block per chunk.  No array on the run path starts from a freshly
   allocated element: past 256 elements OCaml empties the minor heap
   before it fills such an array ([Array.init], [Array.of_list] and
   [Array.map] over fresh values all do), and with a helper domain parked
   on the same CPU that collection costs ~190 µs (E21). *)
type chunks =
  | Blocks of { phase : Sched.phase; k : int }
      (** [k] near-equal contiguous blocks, block [c] being instances
          [c·n/k, (c+1)·n/k) of the phase's [n]; [k] is clamped to
          [1 … n], and is 0 for an empty phase *)
  | Chains of { phase : Sched.phase; order : int array }
      (** chunk [c] is the whole task [order.(c)]; empty tasks are left
          out *)

let n_chunks = function
  | Blocks { k; _ } -> k
  | Chains { order; _ } -> Array.length order

(* The unit a chunk runs: its block ordinal, or its task index (for REC
   plans the recurrence-chain id, which the per-task spans carry so
   barrier stragglers stay attributable to a chain). *)
let chunk_id chunks c =
  match chunks with Blocks _ -> c | Chains { order; _ } -> order.(c)

let block_lo ~k ~n c = c * n / k

(* [chunks] clamped to [1 … n] blocks; none for an empty phase. *)
let block_count ~chunks n = if n <= 0 then 0 else min n (max 1 chunks)

(* Chunk [c]'s first instance and its instance count. *)
let chunk_lo chunks c =
  match chunks with
  | Blocks { phase; k } -> block_lo ~k ~n:(Sched.phase_size phase) c
  | Chains { phase; order } -> Sched.task_start phase order.(c)

let chunk_len chunks c =
  match chunks with
  | Blocks { phase; k } ->
      let n = Sched.phase_size phase in
      block_lo ~k ~n (c + 1) - block_lo ~k ~n c
  | Chains { phase; order } -> Sched.task_length phase order.(c)

let nonempty_tasks p =
  let k = ref 0 in
  for u = 0 to Sched.n_tasks p - 1 do
    if Sched.task_length p u > 0 then incr k
  done;
  !k

(* The indices of the [n] tasks of lengths [len] that are not empty, in
   drain order: index order, or when [longest_first] the longest first
   with ties by ascending index, so the chain that bounds the barrier
   starts first.  The latter is a counting sort over the task lengths,
   O(tasks + the longest task); both allocate int arrays only. *)
let drain_order ~longest_first n len =
  let nonempty = ref 0 and longest = ref 0 in
  for u = 0 to n - 1 do
    let l = len u in
    if l > 0 then incr nonempty;
    longest := max !longest l
  done;
  let order = Array.make !nonempty 0 in
  if not longest_first then begin
    let k = ref 0 in
    for u = 0 to n - 1 do
      if len u > 0 then begin
        order.(!k) <- u;
        incr k
      end
    done
  end
  else begin
    (* [next.(l)]: the count of tasks of length [l], then the next free
       slot for one. *)
    let next = Array.make (!longest + 1) 0 in
    for u = 0 to n - 1 do
      let l = len u in
      next.(l) <- next.(l) + 1
    done;
    let slot = ref 0 in
    for l = !longest downto 1 do
      let c = next.(l) in
      next.(l) <- !slot;
      slot := !slot + c
    done;
    for u = 0 to n - 1 do
      let l = len u in
      if l > 0 then begin
        order.(next.(l)) <- u;
        next.(l) <- next.(l) + 1
      end
    done
  end;
  order

(* The domains a phase engages: the chunks the cost model affords for
   its instances ({!Sim.doall_chunk_count}: one below two affordable
   chunks), at most one per non-empty task, at most [threads].  A phase
   that engages one domain (or none: it is empty) runs on the caller. *)
let engaged ~cost ~threads phase =
  let k =
    min threads
      (Sim.doall_chunk_count cost ~threads ~n:(Sched.phase_size phase))
  in
  if Sched.is_doall phase then k else min k (nonempty_tasks phase)

(* The domains each phase of [s] engages, and the widest of them: the
   size of a transient pool for the run (1: the run needs none). *)
let engaged_phases ~cost ~threads s =
  Array.init (Sched.n_phases s) (fun k -> engaged ~cost ~threads (Sched.phase s k))

let widest domains = Array.fold_left max 1 domains

let pool_domains ?(cost = Sim.base_seconds) ~threads s =
  widest (engaged_phases ~cost ~threads:(max 1 threads) s)

(* The chunk policy.  DOALL blocks are sized cost-proportionally by
   {!Sim.doall_chunk_count} (a single block on one domain).  Empty tasks
   are dropped; when several domains share the rest they drain them
   longest first. *)
let chunks_of ~cost ~threads phase =
  if Sched.is_doall phase then
    let n = Sched.phase_size phase in
    Blocks
      {
        phase;
        k = block_count ~chunks:(Sim.doall_chunk_count cost ~threads ~n) n;
      }
  else
    Chains
      {
        phase;
        order =
          drain_order ~longest_first:(threads > 1) (Sched.n_tasks phase)
            (Sched.task_length phase);
      }

(* Runs instances [lo, lo + len) of phase [p] through the compiled
   kernels, in place in the phase's array, with the executing domain's
   scratch: one range call per maximal run of one statement, so a
   single-statement range is one call. *)
let exec_range compiled sc p lo len =
  let a = Sched.data p and w = Sched.width p in
  let hi = lo + len in
  let k = ref lo in
  while !k < hi do
    let s = Sched.stmt p !k in
    let j = ref (!k + 1) in
    while !j < hi && Sched.stmt p !j = s do
      incr j
    done;
    Compile.exec_range compiled sc s a (Sched.coords p !k) w (!j - !k);
    k := !j
  done

let run_chunk compiled sc chunks c =
  match chunks with
  | Blocks { phase; _ } | Chains { phase; _ } ->
      exec_range compiled sc phase (chunk_lo chunks c) (chunk_len chunks c)

let kind_of = function Blocks _ -> "block" | Chains _ -> "chain"

(* One chunk inside a [task] span carrying the per-chunk sample
   {!Obs.Critpath} consumes: [("phase", label)], [(kind, id)] and
   [("len", points)]. *)
let traced_chunk ~label compiled sc chunks c =
  let s0 = Obs.Clock.now_ns () in
  let len = chunk_len chunks c in
  Obs.Span.with_ ~name:"task"
    ~args:
      [
        ("phase", label);
        (kind_of chunks, string_of_int (chunk_id chunks c));
        ("len", string_of_int len);
      ]
    (fun () -> run_chunk compiled sc chunks c);
  Obs.Histogram.observe task_len_hist len;
  Obs.Histogram.observe task_ns_hist
    (Int64.to_int (Int64.sub (Obs.Clock.now_ns ()) s0))

(* ---- the phase runner ------------------------------------------------- *)

(* The readings of one run, one slot per phase, turned into
   [phase_stat]s after the last barrier.  Clock readings are nanoseconds
   since the run's first boundary (a float computed in place allocates
   less than a call returning one).  A phase's own bookkeeping is a few
   stores into these arrays, so the words a phase on the caller reports
   are its loop's, not the statistics of the phase before it. *)
type readings = {
  bound : float array;  (** clock at each phase boundary; [n + 1] slots *)
  start : float array;  (** clock when the phase's loop started *)
  words : float array;  (** words allocated between the phase's boundaries *)
  units : int array;  (** chunks or non-empty tasks executed *)
  pooled : (float * float * int) array array;
      (** per-domain [(busy, words, load)] of a phase handed to the
          pool; [[||]] for a phase run on the caller *)
}

(* Drains chunks through the cursor [next] on this domain, with a
   scratch this domain owns, and returns the seconds it was busy, the
   words it allocated (an {!Obs.Gcstats.mark} reading taken inside the
   executing domain: O(1) and exact for this domain's work) and the
   instances it executed.  With a log attached the chunks run inside a
   bucket span and their task spans. *)
let drain_chunks ~logged ~label compiled chunks next =
  let sc = Compile.scratch compiled in
  let gc0 = Obs.Gcstats.mark () in
  let t0 = Obs.Clock.now_ns () in
  let n = n_chunks chunks in
  let load = ref 0 in
  let rec go run =
    let c = Atomic.fetch_and_add next 1 in
    if c < n then begin
      load := !load + chunk_len chunks c;
      run c;
      go run
    end
  in
  if not logged then go (run_chunk compiled sc chunks)
  else
    Obs.Span.with_ ~name:("bucket:" ^ label) (fun () ->
        go (traced_chunk ~label compiled sc chunks));
  let busy = Obs.Clock.elapsed_s t0 in
  let words = Obs.Gcstats.words_since gc0 in
  (busy, words, !load)

(* The one phase runner.  A phase that engages one domain runs on the
   calling domain: a plain loop over its instances, tasks in index
   order, with no chunk order, closure or cursor — the path a sequential
   run takes.  With a log attached the same instances run as the same
   chunks inside the bucket and task spans.  A phase that engages
   several domains is cut into chunks that those domains drain through
   one atomic cursor on the pool, so a late-waking or straggling domain
   simply takes fewer chunks; the return from {!Workers.run} is the
   barrier. *)
let run_phase ~logged ~cost ~threads ~pool compiled sc ~t0 r k ~domains phase
    =
  match pool with
  | Some pool when domains > 1 ->
      let label = Sched.phase_label phase in
      let chunks = chunks_of ~cost ~threads phase in
      let next = Atomic.make 0 in
      let drain () = drain_chunks ~logged ~label compiled chunks next in
      r.units.(k) <- n_chunks chunks;
      r.pooled.(k) <- Workers.run pool (Array.make domains drain)
  | _ when logged ->
      let label = Sched.phase_label phase in
      let chunks = chunks_of ~cost ~threads:1 phase in
      let n = n_chunks chunks in
      r.units.(k) <- n;
      r.start.(k) <- Int64.to_float (Int64.sub (Obs.Clock.now_ns ()) t0);
      Obs.Span.with_ ~name:("bucket:" ^ label) (fun () ->
          for c = 0 to n - 1 do
            traced_chunk ~label compiled sc chunks c
          done)
  | _ ->
      r.start.(k) <- Int64.to_float (Int64.sub (Obs.Clock.now_ns ()) t0);
      (* A task phase's tasks lie in index order in its array. *)
      r.units.(k) <-
        (if Sched.is_doall phase then min 1 (Sched.phase_size phase)
         else nonempty_tasks phase);
      exec_range compiled sc phase 0 (Sched.phase_size phase)

let phase_stat r k phase =
  let label = Sched.phase_label phase and n_instances = Sched.phase_size phase in
  let seconds = (r.bound.(k + 1) -. r.bound.(k)) *. 1e-9 in
  match r.pooled.(k) with
  | [||] ->
      {
        label;
        n_instances;
        n_units = r.units.(k);
        loads = [| n_instances |];
        busy = [| (r.bound.(k + 1) -. r.start.(k)) *. 1e-9 |];
        alloc = [| r.words.(k) |];
        seconds;
      }
  | st ->
      {
        label;
        n_instances;
        n_units = r.units.(k);
        loads = Array.map (fun (_, _, l) -> l) st;
        busy = Array.map (fun (b, _, _) -> b) st;
        alloc = Array.map (fun (_, w, _) -> w) st;
        seconds;
      }

(* The clock and the allocation counters are read once at each phase
   boundary: a phase closes where the next one opens.  A phase on the
   caller adds one clock reading, at the start of its loop, so [busy] is
   the loop's time and [seconds] the boundary-to-boundary wall.  The
   domains each phase engages are settled before the timed region, and
   a transient pool is made there only when some phase engages two; it
   holds the widest phase's domains, not [threads]. *)
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
  Sched.check_arity s ~depths:(Compile.depths compiled);
  let n = Sched.n_phases s in
  let domains = engaged_phases ~cost ~threads s in
  let pool, owned =
    match workers with
    | Some w -> (Some w, false)
    | None when widest domains > 1 ->
        (Some (Workers.create ~domains:(widest domains)), true)
    | None -> (None, false)
  in
  Fun.protect
    ~finally:(fun () -> if owned then Option.iter Workers.shutdown pool)
    (fun () ->
      let r =
        {
          bound = Array.make (n + 1) 0.0;
          start = Array.make n 0.0;
          words = Array.make n 0.0;
          units = Array.make n 0;
          pooled = Array.make n [||];
        }
      in
      let logged = Obs.Event.enabled (Obs.Event.ambient ()) in
      let spans = logged || Obs.Flight.enabled () in
      let sc = Compile.scratch compiled in
      let probe = Obs.Gcstats.mark () in
      let t0 = Obs.Clock.now_ns () in
      for k = 0 to n - 1 do
        let phase = Sched.phase s k and domains = domains.(k) in
        if spans then
          Obs.Span.with_ ~name:("phase:" ^ Sched.phase_label phase) (fun () ->
              run_phase ~logged ~cost ~threads ~pool compiled sc ~t0 r k
                ~domains phase)
        else
          run_phase ~logged ~cost ~threads ~pool compiled sc ~t0 r k ~domains
            phase;
        r.bound.(k + 1) <- Int64.to_float (Int64.sub (Obs.Clock.now_ns ()) t0);
        r.words.(k) <- Obs.Gcstats.lap probe
      done;
      {
        store;
        seconds = r.bound.(n) *. 1e-9;
        phase_stats = List.init n (fun k -> phase_stat r k (Sched.phase s k));
      })

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
  let k = block_count ~chunks n in
  List.init k (fun c ->
      (block_lo ~k ~n c, block_lo ~k ~n (c + 1) - block_lo ~k ~n c))
