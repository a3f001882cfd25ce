(* exec-paper: the paper's Figure 3 on real domains.

   Set-up builds each schedule once through Pipeline.Driver, runs the
   sequential oracle and one warm call; the timed loop then calls
   Runtime.Exec.run_timed round-robin on one persistent Workers pool.
   run.py pins the process, with every domain of the pool, to one CPU,
   so ops are timed on this process's task clock (see cpu.ml). *)

module B = Loopir.Builtin
module P = Pipeline.Plan

(* REC beside the barrier-bound baselines: the REC schedules have three
   phases, mindist and Cholesky's dataflow fronts have hundreds to
   thousands, so a barrier or chunking change moves one kind and not the
   other.  Sizes put one call in the tens of milliseconds, in groups of
   about 20, 30, 45, 70 and 87 ms: the median and the 90th-percentile op
   then fall inside a group, not on the edge between two, where noise
   would move them from one group to the other. *)
let specs =
  [
    ("example1", "rec", B.example1, [ ("n1", 200); ("n2", 300) ], Some P.Rec);
    ("example1", "pdm", B.example1, [ ("n1", 200); ("n2", 300) ], Some P.Pdm);
    ( "example1", "mindist", B.example1, [ ("n1", 100); ("n2", 150) ], Some P.Mindist );
    ("example2", "rec", B.example2, [ ("n", 180) ], Some P.Rec);
    ("example2", "unique", B.example2, [ ("n", 180) ], Some P.Unique);
    ("example3", "auto", B.example3, [ ("n", 40) ], None);
    ( "cholesky", "auto", B.cholesky, [ ("n", 30); ("m", 8); ("nmat", 4); ("nrhs", 2) ], None );
  ]

type case = {
  label : string;
  env : Runtime.Interp.env;
  sched : Runtime.Sched.t;
  oracle : Runtime.Arrays.t;
}

(* [span name f] is [f ()], inside a span when the run is traced. *)
type tracer = { span : 'a. req:int -> string -> (unit -> 'a) -> 'a }

let untraced = { span = (fun ~req:_ _ f -> f ()) }

let build tr ~req (prog_name, strat, prog, params, strategy) =
  let plan =
    tr.span ~req "pipeline.classify" (fun () ->
        Util.ok_or_fail "classify" (Pipeline.Driver.classify ?strategy prog))
  in
  let m =
    tr.span ~req "pipeline.materialize" (fun () ->
        Util.ok_or_fail "materialize" (Pipeline.Driver.materialize plan ~prog ~params))
  in
  let sched =
    tr.span ~req "pipeline.schedule" (fun () ->
        Util.ok_or_fail "schedule" (Pipeline.Driver.schedule m))
  in
  let env = Runtime.Interp.prepare prog ~params in
  { label = prog_name ^ "-" ^ strat; env; sched; oracle = Runtime.Interp.run_sequential env }

type setup = { pool : Runtime.Workers.t; cases : case array; seconds : float }

(* From pool start to the first timed op: schedules, oracles, and one
   checked warm call per schedule.  [failed] counts warm-call mismatches. *)
let setup tr ~threads ~failed =
  let t0 = Cpu.now [ Cpu.self ] in
  let pool = Runtime.Workers.create ~domains:threads in
  let cases = Array.of_list (List.mapi (fun i s -> build tr ~req:(-1 - i) s) specs) in
  Array.iter
    (fun c ->
      let r = Runtime.Exec.run_timed ~workers:pool c.env ~threads c.sched in
      if not (Runtime.Arrays.equal r.Runtime.Exec.store c.oracle) then incr failed)
    cases;
  { pool; cases; seconds = Cpu.elapsed_s [ Cpu.self ] t0 }

let setups = 5

(* Per-layer accumulators of the traced ops. *)
type acc = {
  mutable metrics : Obs.Metrics.t;
  mutable alloc_words : float;
  mutable minor : int;
  mutable major : int;
  mutable busy : float;
  mutable capacity : float;  (** threads × Σ phase seconds *)
  speedup : Stats.buf array;  (** per case: sequential ÷ phases *)
  mutable ops : int;
}

let traced_op sp acc ~threads ~req pool ci c =
  let m0 = Obs.Metrics.snapshot () in
  let g0 = Gc.quick_stat () in
  let t0 = Cpu.now [ Cpu.self ] in
  let call = Spans.start sp ~req "runtime.exec.call" in
  let r = Runtime.Exec.run_timed ~workers:pool c.env ~threads c.sched in
  Spans.stop sp call;
  let dt = Cpu.elapsed_s [ Cpu.self ] t0 in
  Spans.reported sp ~parent:call ~req "runtime.exec.phases" ~seconds:r.seconds;
  let g1 = Gc.quick_stat () in
  let m1 = Obs.Metrics.snapshot () in
  acc.metrics <- Obs.Metrics.merge acc.metrics (Obs.Metrics.diff ~before:m0 ~after:m1);
  acc.alloc_words <-
    acc.alloc_words
    +. (g1.minor_words -. g0.minor_words)
    +. (g1.major_words -. g0.major_words)
    -. (g1.promoted_words -. g0.promoted_words);
  acc.minor <- acc.minor + (g1.minor_collections - g0.minor_collections);
  acc.major <- acc.major + (g1.major_collections - g0.major_collections);
  List.iter
    (fun (p : Runtime.Exec.phase_stat) ->
      acc.busy <- acc.busy +. Stats.sum p.busy;
      acc.capacity <- acc.capacity +. (float_of_int threads *. p.seconds))
    r.phase_stats;
  acc.ops <- acc.ops + 1;
  (* The layers run_timed calls first, timed again on the op's env. *)
  let store =
    Spans.with_ sp ~req "runtime.interp.scan_bounds" (fun () ->
        Runtime.Interp.scan_bounds c.env)
  in
  ignore
    (Spans.with_ sp ~req "runtime.compile.program" (fun () ->
         Runtime.Compile.program c.env store));
  let t1 = Util.now () in
  ignore
    (Spans.with_ sp ~req "runtime.interp.run_sequential" (fun () ->
         Runtime.Interp.run_sequential c.env));
  Stats.push acc.speedup.(ci) (Util.elapsed t1 /. r.seconds);
  (r, dt)

let run ~threads ~seconds ~seed ~trace ~spans_out =
  let failed = ref 0 and attempted = ref 0 in
  let sp = Spans.create () in
  let tracer = { span = (fun ~req name f -> Spans.with_ sp ~req name f) } in
  let cal = Calib.create () in
  (* Set up [setups] times from a cold analysis memo and report the
     median; the last set-up is the one measured. *)
  let rec set_up k times =
    Presburger.Hc.clear_all ();
    Gc.full_major ();
    let s = setup (if trace && k = 1 then tracer else untraced) ~threads ~failed in
    Calib.measure cal;
    attempted := !attempted + Array.length s.cases;
    if k = 1 then (s, s.seconds :: times)
    else begin
      Runtime.Workers.shutdown s.pool;
      set_up (k - 1) (s.seconds :: times)
    end
  in
  let s, setup_times = set_up setups [] in
  Fun.protect ~finally:(fun () -> Runtime.Workers.shutdown s.pool) @@ fun () ->
  let n = Array.length s.cases in
  let order = Util.permutation (Random.State.make [| seed |]) n in
  let per_case = Array.init n (fun _ -> Stats.buf ()) in
  let untraced_lat = Stats.buf () in
  let wall = ref 0.0 in
  let per_case_traced = Array.init n (fun _ -> Stats.buf ()) in
  let acc =
    {
      metrics = { Obs.Metrics.counters = []; histograms = [] };
      alloc_words = 0.0;
      minor = 0;
      major = 0;
      busy = 0.0;
      capacity = 0.0;
      speedup = Array.init n (fun _ -> Stats.buf ());
      ops = 0;
    }
  in
  let op ~traced ci =
    let c = s.cases.(ci) in
    let req = !attempted in
    incr attempted;
    let r, dt =
      if traced then traced_op sp acc ~threads ~req s.pool ci c
      else begin
        let w0 = Util.now () and t0 = Cpu.now [ Cpu.self ] in
        let r = Runtime.Exec.run_timed ~workers:s.pool c.env ~threads c.sched in
        let dt = Cpu.elapsed_s [ Cpu.self ] t0 in
        wall := !wall +. Util.elapsed w0;
        (r, dt)
      end
    in
    if traced then Stats.push per_case_traced.(ci) dt
    else begin
      Stats.push untraced_lat dt;
      Stats.push per_case.(ci) dt
    end;
    if not (Runtime.Arrays.equal r.Runtime.Exec.store c.oracle) then incr failed
  in
  (* Whole rounds only, so every run weighs the schedules alike; a traced
     run alternates untraced and traced rounds. *)
  let deadline = Int64.add (Util.now ()) (Int64.of_float (seconds *. 1e9)) in
  let round = ref 0 in
  while Util.now () < deadline do
    let traced = trace && !round mod 2 = 1 in
    Array.iter (op ~traced) order;
    Calib.measure cal;
    incr round
  done;
  Array.iteri
    (fun i c ->
      let b = Stats.contents per_case.(i) in
      Printf.eprintf "exec-paper: %-18s %3d calls, median %.1f ms, %d phases\n" c.label
        (Array.length b) (Util.ms (Stats.median b)) (Runtime.Sched.n_phases c.sched))
    s.cases;
  let lat = Stats.contents untraced_lat in
  let cpu_share = if !wall > 0.0 then Stats.sum lat /. !wall else 0.0 in
  Printf.eprintf "exec-paper: task clock %.1f%% of wall time over the timed ops\n"
    (100.0 *. cpu_share);
  let sc = Calib.scale cal in
  Printf.eprintf "exec-paper: calibration kernel %.3f ms, times scaled by %.3f\n"
    (Util.ms (Calib.kernel_s cal)) sc;
  let e2e =
    [
      ("ops_per_s", float_of_int (Array.length lat) /. Stats.sum lat /. sc, "op/s");
      ("latency_p50_ms", sc *. Util.ms (Stats.quantile lat 0.5), "ms");
      ("latency_p90_ms", sc *. Util.ms (Stats.quantile lat 0.9), "ms");
      ("setup_s", sc *. Stats.median (Array.of_list setup_times), "s");
      ("peak_rss_mb", Util.peak_rss_mb "self", "MiB");
      ( "exec_ms_geomean",
        sc
        *. Stats.geomean
             (Array.map (fun b -> Util.ms (Stats.median (Stats.contents b))) per_case),
        "ms" );
    ]
  in
  let metrics =
    if not trace then e2e
    else begin
      Option.iter (Spans.write sp) spans_out;
      let tot = Spans.totals sp in
      let per_op name = (tot name).Spans.total_s /. float_of_int (max 1 acc.ops) in
      let mean_self name =
        let t = tot name in
        if t.count = 0 then 0.0 else t.self_s /. float_of_int t.count
      in
      let call = per_op "runtime.exec.call"
      and phases = per_op "runtime.exec.phases"
      and scan = per_op "runtime.interp.scan_bounds"
      and compile = per_op "runtime.compile.program" in
      let m = acc.metrics in
      let jobs = Util.counter m "runtime.workers.jobs" in
      let ops = float_of_int (max 1 acc.ops) in
      [
        ("host.cpu_share", cpu_share, "ratio");
        ("host.calib_ms", Util.ms (Calib.kernel_s cal), "ms");
        ("runtime.exec.call_ms", Util.ms call, "ms");
        ("runtime.exec.phases_ms", Util.ms phases, "ms");
        ("runtime.interp.scan_bounds_ms", Util.ms scan, "ms");
        ("runtime.compile.program_ms", Util.ms compile, "ms");
        ("runtime.exec.remainder_ms", Util.ms (call -. phases -. scan -. compile), "ms");
        ("runtime.interp.run_sequential_ms", Util.ms (per_op "runtime.interp.run_sequential"), "ms");
        ("runtime.exec.idle_frac", (if acc.capacity > 0.0 then 1.0 -. (acc.busy /. acc.capacity) else 0.0), "ratio");
        ( "runtime.workers.barrier_wait_us",
          (match Util.histogram m "runtime.workers.barrier_wait_us" with
          | Some h -> Obs.Histogram.percentile h 0.5
          | None -> 0.0),
          "us" );
        ( "runtime.workers.stolen_ratio",
          (if jobs = 0 then 0.0
           else float_of_int (Util.counter m "runtime.workers.jobs_stolen") /. float_of_int jobs),
          "ratio" );
        ("runtime.exec.alloc_words", acc.alloc_words /. ops, "words");
        ("gc.minor_collections", float_of_int acc.minor /. ops, "count");
        ("gc.major_collections", float_of_int acc.major /. ops, "count");
        ("pipeline.classify_ms", Util.ms (mean_self "pipeline.classify"), "ms");
        ("pipeline.materialize_ms", Util.ms (mean_self "pipeline.materialize"), "ms");
        ("pipeline.schedule_ms", Util.ms (mean_self "pipeline.schedule"), "ms");
      ]
      @ List.mapi
          (fun i c ->
            ( "runtime.exec.speedup_vs_seq." ^ c.label,
              Stats.median (Stats.contents acc.speedup.(i)),
              "x" ))
          (Array.to_list s.cases)
      @ Util.overhead_metrics ~untraced:per_case ~traced:per_case_traced
    end
  in
  { Util.attempted = !attempted; failed = !failed; metrics }
