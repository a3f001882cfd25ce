(* serve-miss: a [recpart serve] child on a Unix socket, driven by one
   connection that keeps one request outstanding (a closed loop with one
   client) and sends only nests the server has never seen.  Both
   processes run on one CPU, so a run measures each request's path
   length, not cross-core wake-ups. *)

module J = Pipeline.Json

(* Two small sizes of every builtin nest: small enough that a cold
   request costs milliseconds, large enough that every strategy builds a
   real schedule. *)
let sizes = [ 8; 16 ]

(* ---- the server child ------------------------------------------------ *)

(* [clocks]: the task clocks of this process and the child, which
   together do every op (see cpu.ml). *)
type child = {
  pid : int;
  dir : string;
  clocks : Cpu.clock list;
  mutable conn : Net.Client.t option;
}

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let exited pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> false
  | _ -> true
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true

(* SIGTERM, a grace period to drain, then SIGKILL; the socket and the
   store directory go with the child. *)
let stop c =
  Option.iter Net.Client.close c.conn;
  c.conn <- None;
  (try Unix.kill c.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = Int64.add (Util.now ()) 5_000_000_000L in
  let rec wait () =
    if exited c.pid then true
    else if Util.now () > deadline then false
    else begin
      Unix.sleepf 0.002;
      wait ()
    end
  in
  if not (wait ()) then begin
    (try Unix.kill c.pid Sys.sigkill with Unix.Unix_error _ -> ());
    try ignore (Unix.waitpid [] c.pid) with Unix.Unix_error _ -> ()
  end;
  rm_rf c.dir

let conn c = Option.get c.conn

let call c line =
  match Net.Client.call ~timeout_s:60.0 (conn c) line with
  | Ok l -> l
  | Error e -> failwith ("request failed: " ^ e)

let field k j = J.member k j

let str k j = match field k j with Some (J.Str s) -> s | _ -> ""

let num k j =
  match field k j with
  | Some (J.Float f) -> f
  | Some (J.Int i) -> float_of_int i
  | _ -> 0.0

let health c =
  match J.parse (call c {|{"id":"health","mode":"health"}|}) with
  | Ok j -> field "healthy" j = Some (J.Bool true)
  | Error _ -> false

(* Starts [recpart serve] on a fresh socket and store under [dir] and
   returns once it has answered its first health request, polling every
   half millisecond so the poll interval stays below the noise. *)
let spawn ~recpart ~dir ~f =
  Unix.mkdir dir 0o700;
  let sock = Filename.concat dir "s.sock" in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close null)
      (fun () ->
        Unix.create_process recpart
          [|
            recpart; "serve"; "--listen"; "unix:" ^ sock; "--domains"; "1";
            "-t"; "1"; "--store-dir"; Filename.concat dir "store";
          |]
          null Unix.stderr Unix.stderr)
  in
  let c = { pid; dir; clocks = [ Cpu.self; Cpu.of_pid pid ]; conn = None } in
  Fun.protect ~finally:(fun () -> stop c) @@ fun () ->
  let deadline = Int64.add (Util.now ()) 60_000_000_000L in
  let rec connect () =
    match Net.Client.connect (Net.Addr.Unix_sock sock) with
    | Ok cl -> c.conn <- Some cl
    | Error e ->
        if exited pid then failwith "recpart serve exited before it was ready";
        if Util.now () > deadline then failwith ("recpart serve not ready: " ^ e);
        Unix.sleepf 0.0005;
        connect ()
  in
  connect ();
  if not (health c) then failwith "recpart serve reports unhealthy";
  f c

(* Cumulative server counters from one [metrics] op. *)
let counters c =
  match J.parse (call c {|{"id":"metrics","mode":"metrics"}|}) with
  | Ok j -> (
      match Option.bind (field "metrics" j) (field "counters") with
      | Some (J.Obj kv) ->
          List.filter_map (function k, J.Int v -> Some (k, v) | _ -> None) kv
      | _ -> failwith "metrics op: no counters")
  | Error e -> failwith ("metrics op: " ^ e)

(* ---- one op ------------------------------------------------------------ *)

type answer = { good : bool; queue_s : float; run_s : float }

(* Every reply is checked outside the timed span: in order, [ok], computed
   rather than served from the cache, with a schedule whose legality and
   semantics checks both passed. *)
let check ~id line =
  match J.parse line with
  | Error _ -> { good = false; queue_s = 0.0; run_s = 0.0 }
  | Ok j ->
      let verified =
        match field "report" j with
        | Some r -> str "legality" r = "ok" && str "semantics" r = "ok"
        | None -> false
      in
      {
        good =
          str "id" j = id
          && str "status" j = "ok"
          && field "cached" j <> Some (J.Bool true)
          && verified;
        queue_s = num "queue_seconds" j;
        run_s = num "run_seconds" j;
      }

(* ---- the run ----------------------------------------------------------- *)

let setups = 5

(* The cache-key facets [recpart serve -t 1] adds for a run request. *)
let key_extra =
  [ "mode=run"; "threads=1"; "check=true"; "measure=true"; "exec=compiled"; "survey=false" ]

let decode line =
  match Svc.Proto.request_of_line line with
  | Ok r -> r
  | Error e -> failwith ("replay decode: " ^ e.Svc.Proto.message)

let max_lines = 2000

(* In-process replay of the run's lines, for the per-layer split of what
   the server does per request.  The svc path times decode, run_one and
   encode on a fresh service, so every line is computed as in the
   server; the stage path starts from a cleared analysis memo and times
   parse, key and each Driver stage on every line.  Each path replays at most [max_lines] lines and stops after
   [seconds].  Returns the checks made, the checks failed, and the
   replay's own metrics. *)
let replay sp ~seconds ~timed_lines =
  let checked = ref 0 and failed = ref 0 and bytes = ref 0 in
  let verdict ok =
    incr checked;
    if not ok then incr failed
  in
  let svc =
    Svc.Service.create
      ~config:{ Svc.Service.default_config with domains = 1; threads = 1 }
      ()
  in
  Fun.protect ~finally:(fun () -> Svc.Service.shutdown svc) (fun () ->
      let t0 = Util.now () in
      Array.iteri
        (fun j l ->
          if j < max_lines && Util.elapsed t0 < seconds then begin
            let req = 1_000_000 + j in
            let line = Corpus.render ~id:(string_of_int req) l in
            Spans.with_ sp ~req "replay.svc" (fun () ->
                let r = Spans.with_ sp ~req "svc.proto.decode" (fun () -> decode line) in
                let resp =
                  Spans.with_ sp ~req "svc.service.run_one" (fun () -> Svc.Service.run_one svc r)
                in
                let out =
                  Spans.with_ sp ~req "svc.proto.encode" (fun () -> Svc.Proto.response_to_line resp)
                in
                bytes := !bytes + String.length out;
                verdict (Svc.Proto.ok resp && not resp.cached))
          end)
        timed_lines);
  let replayed = !checked in
  Presburger.Hc.clear_all ();
  let omega = ref 0 and hits = ref 0 and misses = ref 0 and stage_reqs = ref 0 in
  let t0 = Util.now () in
  Array.iteri
    (fun j l ->
      if j < max_lines && Util.elapsed t0 < seconds then begin
        let req = 2_000_000 + j in
        let r = decode (Corpus.render ~id:(string_of_int req) l) in
        let m0 = Obs.Metrics.snapshot () in
        Spans.with_ sp ~req "replay.stages" (fun () ->
            let prog =
              Spans.with_ sp ~req "loopir.parse" (fun () ->
                  match r.source with
                  | Svc.Proto.Src s -> Loopir.Parser.parse ~name:r.name s
                  | Svc.Proto.Prog p -> p)
            in
            let params = r.params and strategy = r.strategy in
            ignore
              (Spans.with_ sp ~req "svc.key.digest" (fun () ->
                   Svc.Key.of_request ?strategy ~extra:key_extra ~params prog));
            let plan =
              Spans.with_ sp ~req "pipeline.classify" (fun () ->
                  Util.ok_or_fail "classify" (Pipeline.Driver.classify ?strategy prog))
            in
            let m =
              Spans.with_ sp ~req "pipeline.materialize" (fun () ->
                  Util.ok_or_fail "materialize" (Pipeline.Driver.materialize plan ~prog ~params))
            in
            let sched =
              Spans.with_ sp ~req "pipeline.schedule" (fun () ->
                  Util.ok_or_fail "schedule" (Pipeline.Driver.schedule m))
            in
            let legal =
              Spans.with_ sp ~req "pipeline.validate" (fun () ->
                  Runtime.Sched.check_legal sched (Depend.Trace.build prog ~params))
            in
            let same =
              Spans.with_ sp ~req "pipeline.execute" (fun () ->
                  let env = Runtime.Interp.prepare prog ~params in
                  let seq = Runtime.Interp.run_sequential env in
                  let t = Runtime.Exec.run_timed env ~threads:1 sched in
                  Runtime.Arrays.equal seq t.Runtime.Exec.store)
            in
            verdict (legal = Ok () && same));
        let o, h, m =
          Util.presburger_counts
            (Obs.Metrics.diff ~before:m0 ~after:(Obs.Metrics.snapshot ()))
        in
        omega := !omega + o;
        hits := !hits + h;
        misses := !misses + m;
        incr stage_reqs
      end)
    timed_lines;
  let n = float_of_int (max 1 !stage_reqs) in
  ( !checked,
    !failed,
    [
      ("svc.response_bytes", float_of_int !bytes /. float_of_int (max 1 replayed), "bytes");
      ("presburger.omega_calls", float_of_int !omega /. n, "count");
      ( "presburger.memo_hit_ratio",
        (if !hits + !misses = 0 then 0.0
         else float_of_int !hits /. float_of_int (!hits + !misses)),
        "ratio" );
    ] )

let run ~recpart ~run_dir ~seconds ~seed ~trace ~spans_out =
  let kinds = Corpus.kinds sizes in
  let nk = Array.length kinds in
  let rng = Random.State.make [| seed |] in
  let g = Corpus.gen kinds ~seed in
  (* The warm pass sends one shifted nest per kind, never reused by the
     timed loop. *)
  let warm_lines = Array.init nk (fun i -> Corpus.fresh g ~kind:i) in
  let sp = Spans.create () in
  let failed = ref 0 and attempted = ref 0 in
  let cal = Calib.create () in
  (* One request: the timed span is send to receive; the check, and the
     program-reported queue and run spans, come after it.  Returns its
     task-clock and wall times. *)
  let roundtrip c ~traced (l : Corpus.line) =
    let req = !attempted in
    let id = string_of_int req in
    let line = Corpus.render ~id l in
    incr attempted;
    let span = if traced then Spans.start sp ~req "net.roundtrip" else -1 in
    let w0 = Util.now () and t0 = Cpu.now c.clocks in
    let resp = call c line in
    let dt = Cpu.elapsed_s c.clocks t0 and wall = Util.elapsed w0 in
    if traced then Spans.stop sp span;
    let a = check ~id resp in
    if not a.good then incr failed;
    if traced then begin
      Spans.reported sp ~parent:span ~req "svc.queue" ~seconds:a.queue_s;
      Spans.reported sp ~parent:span ~req "svc.run" ~seconds:a.run_s
    end;
    (dt, wall)
  in
  (* Set-up time is this process's task-clock time from before the spawn
     plus the child's whole task-clock time, read before it stops. *)
  let set_up k f =
    let t0 = Cpu.now [ Cpu.self ] in
    spawn ~recpart ~dir:(Filename.concat run_dir (Printf.sprintf "server%d" k))
      ~f:(fun c ->
        Array.iter (fun l -> ignore (roundtrip c ~traced:false l)) warm_lines;
        let s = Cpu.elapsed_s c.clocks t0 in
        Calib.measure cal;
        f c s)
  in
  let setup_times = ref [] in
  for k = 1 to setups - 1 do
    set_up k (fun _ s -> setup_times := s :: !setup_times)
  done;
  let untraced = Stats.buf () in
  let wall = ref 0.0 in
  let per_kind = Array.init nk (fun _ -> Stats.buf ()) in
  let per_kind_traced = Array.init nk (fun _ -> Stats.buf ()) in
  let timed_lines = ref [] in
  let ops = ref 0 in
  let d, rss =
    set_up setups (fun c s ->
        setup_times := s :: !setup_times;
        (* A health op first: its reply is written only after every earlier
           reply has been counted, so the two metrics ops bracket exactly
           the timed requests plus one health op and one metrics op. *)
        ignore (health c);
        let before = counters c in
        let deadline = Int64.add (Util.now ()) (Int64.of_float (seconds *. 1e9)) in
        while Util.now () < deadline do
          (* A round sends every kind once, in a seeded order: uniform
             picks without the run-to-run drift in mix that independent
             picks give (a few heavy kinds dominate the time). *)
          Array.iter
            (fun i ->
              let l = Corpus.fresh g ~kind:i in
              let traced = trace && !ops land 1 = 1 in
              let dt, w = roundtrip c ~traced l in
              if traced then Stats.push per_kind_traced.(i) dt
              else begin
                Stats.push untraced dt;
                wall := !wall +. w;
                Stats.push per_kind.(i) dt
              end;
              if trace then timed_lines := l :: !timed_lines;
              incr ops)
            (Util.permutation rng nk);
          Calib.measure cal
        done;
        ignore (health c);
        let after = counters c in
        let count m name = Option.value ~default:0 (List.assoc_opt name m) in
        ( (fun name -> count after name - count before name),
          Util.peak_rss_mb (string_of_int c.pid) ))
  in
  (* Server-side invariants of the timed window: every request received
     was answered, and the cache served exactly what the workload means
     it to serve. *)
  let received = d "net.req.received" - 2 and sent = d "net.resp.sent" - 2 in
  let hits = d "svc.cache.results.hits" and misses = d "svc.cache.results.misses" in
  if received <> !ops || sent <> !ops then incr failed;
  if hits <> 0 then incr failed;
  let lat = Stats.contents untraced in
  let cpu_share = if !wall > 0.0 then Stats.sum lat /. !wall else 0.0 in
  (* The kinds that take most of the run, for reading a shift in the
     totals. *)
  let share =
    Array.mapi (fun i b -> (Stats.sum (Stats.contents b), i)) per_kind
    |> Array.to_list |> List.sort compare |> List.rev
  in
  List.iteri
    (fun r (t, i) ->
      if r < 5 then
        let b = Stats.contents per_kind.(i) in
        Printf.eprintf "serve-miss: %-22s %4d ops, median %.3f ms, %4.1f%% of op time\n"
          kinds.(i).name (Array.length b) (Util.ms (Stats.median b))
          (100.0 *. t /. Stats.sum lat))
    share;
  Printf.eprintf "serve-miss: task clock %.1f%% of wall time over the timed ops\n"
    (100.0 *. cpu_share);
  let sc = Calib.scale cal in
  Printf.eprintf "serve-miss: calibration kernel %.3f ms, times scaled by %.3f\n"
    (Util.ms (Calib.kernel_s cal)) sc;
  let e2e =
    [
      ("ops_per_s", float_of_int (Array.length lat) /. Stats.sum lat /. sc, "op/s");
      ("latency_p50_ms", sc *. Util.ms (Stats.quantile lat 0.5), "ms");
      ("latency_p90_ms", sc *. Util.ms (Stats.quantile lat 0.9), "ms");
      ("setup_s", sc *. Stats.median (Array.of_list !setup_times), "s");
      ("peak_rss_mb", rss, "MiB");
      ( "exec_ms_geomean",
        sc
        *. Stats.geomean
          (Array.of_list
             (List.filter_map
                (fun b ->
                  if b.Stats.len = 0 then None
                  else Some (Util.ms (Stats.median (Stats.contents b))))
                (Array.to_list per_kind))),
        "ms" );
    ]
  in
  let metrics =
    if not trace then e2e
    else begin
      let timed_lines = Array.of_list (List.rev !timed_lines) in
      let checked, replay_failed, replay_metrics =
        replay sp ~seconds ~timed_lines
      in
      attempted := !attempted + checked;
      failed := !failed + replay_failed;
      Option.iter (Spans.write sp) spans_out;
      let tot = Spans.totals sp in
      let mean_total name =
        let t = tot name in
        if t.count = 0 then 0.0 else t.total_s /. float_of_int t.count
      and mean_self name =
        let t = tot name in
        if t.count = 0 then 0.0 else t.self_s /. float_of_int t.count
      in
      let per_req name = float_of_int (d name) /. float_of_int (max 1 !ops) in
      [
        ("host.cpu_share", cpu_share, "ratio");
        ("host.calib_ms", Util.ms (Calib.kernel_s cal), "ms");
        ("net.roundtrip_ms", Util.ms (mean_total "net.roundtrip"), "ms");
        ("svc.queue_ms", Util.ms (mean_self "svc.queue"), "ms");
        ("svc.run_ms", Util.ms (mean_self "svc.run"), "ms");
        ("net.overhead_ms", Util.ms (mean_self "net.roundtrip"), "ms");
        ("svc.proto.decode_us", 1e6 *. mean_self "svc.proto.decode", "us");
        ("svc.service.run_one_us", 1e6 *. mean_self "svc.service.run_one", "us");
        ("svc.proto.encode_us", 1e6 *. mean_self "svc.proto.encode", "us");
        ("replay.svc_remainder_us", 1e6 *. mean_self "replay.svc", "us");
        ("loopir.parse_us", 1e6 *. mean_self "loopir.parse", "us");
        ("svc.key.digest_us", 1e6 *. mean_self "svc.key.digest", "us");
        ("pipeline.classify_ms", Util.ms (mean_self "pipeline.classify"), "ms");
        ("pipeline.materialize_ms", Util.ms (mean_self "pipeline.materialize"), "ms");
        ("pipeline.schedule_ms", Util.ms (mean_self "pipeline.schedule"), "ms");
        ("pipeline.validate_ms", Util.ms (mean_self "pipeline.validate"), "ms");
        ("pipeline.execute_ms", Util.ms (mean_self "pipeline.execute"), "ms");
        ("replay.stages_remainder_us", 1e6 *. mean_self "replay.stages", "us");
        ( "svc.cache.hit_ratio",
          (if hits + misses = 0 then 0.0 else float_of_int hits /. float_of_int (hits + misses)),
          "ratio" );
        ("svc.cache.evictions", per_req "svc.cache.results.evictions", "count");
        ("svc.store.appends", per_req "svc.store.appends", "count");
        ("svc.store.flushes", per_req "svc.store.flushes", "count");
        ("net.req.received", float_of_int received, "count");
        ("net.resp.sent", float_of_int sent, "count");
      ]
      @ replay_metrics
      @ Util.overhead_metrics ~untraced:per_kind ~traced:per_kind_traced
    end
  in
  { Util.attempted = !attempted; failed = !failed; metrics }
