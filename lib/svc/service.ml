type config = {
  domains : int;
  queue_capacity : int;
  cache_capacity : int;
  threads : int;
  check : bool;
  deadline_s : float option;
  slow_ms : float option;
  flight_dir : string option;
  store_dir : string option;
}

let default_config =
  {
    domains = 4;
    queue_capacity = 64;
    cache_capacity = 512;
    threads = 2;
    check = true;
    deadline_s = None;
    slow_ms = None;
    flight_dir = None;
    store_dir = None;
  }

let latency_us = Obs.Histogram.make "svc.request.latency_us"
let queue_us = Obs.Histogram.make "svc.request.queue_us"

type t = {
  config : config;
  cache : Cache.t;
  pool : Runtime.Workers.t;
      (* the one domain pool: its domains drain admitted requests and run
         their execution chunks and DNF disjuncts; spawned at service
         creation, so the spawn count is [domains], never the request
         count *)
  window : Obs.Window.t;
  store : Store.t option;
  mutable gauge_providers : (unit -> (string * float) list) list;
      (* extra point-in-time gauges for the metrics op, registered by
         layers above the service (the network server's connection
         counts live here — svc cannot depend on net) *)
}

let create ?(config = default_config) () =
  let store = Option.map Store.open_dir config.store_dir in
  let t =
    {
      config;
      cache = Cache.create ~capacity:config.cache_capacity ~name:"results" ();
      pool =
        Runtime.Workers.spawn ~queue_capacity:config.queue_capacity
          ~domains:config.domains ();
      window = Obs.Window.create ~period_s:1.0 ();
      store;
      gauge_providers = [];
    }
  in
  Option.iter (fun store -> Cache.attach_store t.cache ~store) store;
  Obs.Flight.enable ();
  t

let cache_stats t = Cache.stats t.cache
let pool t = t.pool
let window t = t.window

let register_gauges t provider =
  t.gauge_providers <- provider :: t.gauge_providers

let flush_store t = Option.iter Store.flush t.store

let shutdown t =
  Obs.Flight.disable ();
  Runtime.Workers.shutdown t.pool;
  Option.iter Store.close t.store

let pipeline_failure stage e =
  Proto.Pipeline_error
    {
      stage = Diag.stage_name stage;
      label = Diag.label e;
      message = Diag.to_string e;
    }

(* Survey classification (dependence uniformity + coupled subscripts) with
   typed errors: the exact single-statement analysis when it applies, the
   exact instance graph otherwise — the logic examples/corpus_scan.ml used
   to hand-roll with catch-all exception swallows. *)
let survey_of prog ~params =
  let coupled () =
    List.exists Depend.Distance.has_coupled_subscripts
      (Loopir.Prog.stmts_of prog)
  in
  let classified =
    match Pipeline.Driver.analyze prog with
    | Ok a ->
        Pipeline.Driver.guarded (fun () ->
            let arr =
              Array.map
                (fun n ->
                  match List.assoc_opt n params with
                  | Some v -> v
                  | None -> Diag.fail (Diag.Unbound_parameter n))
                a.Depend.Solve.params
            in
            let cls =
              Depend.Distance.classify a.Depend.Solve.rd
                ~phi:a.Depend.Solve.phi ~params:arr
            in
            {
              Proto.cls = Depend.Distance.class_to_string cls;
              coupled = coupled ();
              via = "exact";
            })
    | Error (Diag.Unsupported _) ->
        (* Imperfect nest / multiple statements: classify on the exact
           instance graph, like Algorithm 1's fallback. *)
        Pipeline.Driver.guarded (fun () ->
            List.iter
              (fun p ->
                if not (List.mem_assoc p params) then
                  Diag.fail (Diag.Unbound_parameter p))
              prog.Loopir.Ast.params;
            let tr = Depend.Trace.build prog ~params in
            let cls =
              if Depend.Trace.n_edges tr = 0 then Depend.Distance.No_dependence
              else Depend.Distance.Non_uniform
            in
            {
              Proto.cls = Depend.Distance.class_to_string cls;
              coupled = coupled ();
              via = "instance-graph";
            })
    | Error e -> Error e
  in
  Result.map_error (fun e -> (Diag.Analyze, e)) classified

(* A successful request's cached payload ({!Proto.encode_done}) and the
   stage timings the slow-request log prints for it. *)
let compute t (req : Proto.request) prog ~threads =
  match req.mode with
  | Proto.Metrics | Proto.Health ->
      (* introspective requests never reach compute — [process] answers
         them before parse/key/cache *)
      assert false
  | Proto.Classify -> (
      match survey_of prog ~params:req.params with
      | Error (stage, e) -> Error (pipeline_failure stage e)
      | Ok survey ->
          let strategy =
            match
              Pipeline.Driver.guarded (fun () ->
                  Pipeline.Driver.classify ?strategy:req.strategy prog)
            with
            | Ok (Ok plan) ->
                Some
                  (Pipeline.Plan.strategy_name (Pipeline.Plan.strategy plan))
            | Ok (Error _) | Error _ -> None
          in
          Ok (Proto.encode_done ?strategy ~survey (), []))
  | Proto.Run -> (
      let options =
        {
          Pipeline.Driver.default_options with
          threads;
          check = t.config.check;
          measure = t.config.check;
          strategy = req.strategy;
          workers = Some t.pool;
        }
      in
      match Pipeline.Driver.run ~options ~name:req.name ~params:req.params prog with
      | Error e ->
          Error (pipeline_failure e.Pipeline.Driver.stage e.Pipeline.Driver.error)
      | Ok { plan; report; _ } ->
          let survey =
            if not req.survey then None
            else
              match survey_of prog ~params:req.params with
              | Ok s -> Some s
              | Error _ -> None
          in
          Ok
            ( Proto.encode_done
                ~strategy:
                  (Pipeline.Plan.strategy_name (Pipeline.Plan.strategy plan))
                ~describe:(Pipeline.Plan.describe plan) ?survey ~report (),
              report.Pipeline.Report.timings ))

(* ---- introspection ops ----------------------------------------------- *)

let stats_body t =
  let m = Obs.Metrics.snapshot () in
  (* Point-in-time pool state: counters only move forward, but queue depth
     and domain counts are levels — exported as gauges alongside them. *)
  let module W = Runtime.Workers in
  let gauges =
    [
      ("runtime.workers.domains", float_of_int (W.domains t.pool));
      ("runtime.workers.spawned", float_of_int (W.spawned t.pool));
      (* "queue_now" not "queue_depth": the per-submit depth histogram
         already owns that name in the exposition. *)
      ("runtime.workers.queue_now", float_of_int (W.queue_length t.pool));
      ("runtime.workers.queue_capacity", float_of_int (W.capacity t.pool));
    ]
    @ (match t.store with
      | None -> []
      | Some s -> [ ("svc.store.entries", float_of_int (Store.entries s)) ])
    @ List.concat_map (fun provider -> provider ()) t.gauge_providers
  in
  let prometheus = Obs.Export.prometheus ~gauges ~window:t.window m in
  let snapshot =
    match
      Pipeline.Json.parse (Obs.Export.json_string ~gauges ~window:t.window m)
    with
    | Ok j -> j
    | Error _ -> Pipeline.Json.Null
  in
  Proto.Stats { prometheus; snapshot }

let health_body t =
  let module Json = Pipeline.Json in
  let module W = Runtime.Workers in
  let alive = W.alive t.pool in
  let qlen = W.queue_length t.pool in
  let qcap = W.capacity t.pool in
  (* Cache.length takes every shard lock in turn — a responsiveness probe
     as much as a size reading. *)
  let cache_size = Cache.length t.cache in
  let st = Cache.stats t.cache in
  let ok = alive && qlen < qcap in
  let detail =
    Json.Obj
      ([
         ( "pool",
           Json.Obj
             [
               ("alive", Json.Bool alive);
               ("domains", Json.Int (W.domains t.pool));
               ("spawned", Json.Int (W.spawned t.pool));
               ("queue_depth", Json.Int qlen);
               ("queue_capacity", Json.Int qcap);
             ] );
         ( "cache",
           Json.Obj
             [
               ("size", Json.Int cache_size);
               ("capacity", Json.Int st.Cache.capacity);
             ] );
         ( "windows",
           Json.Obj
             [
               ("period_s", Json.Float (Obs.Window.period_s t.window));
               ("max", Json.Int (Obs.Window.max_windows t.window));
             ] );
       ]
      @
      match t.store with
      | None -> []
      | Some s ->
          [
            ( "store",
              Json.Obj
                [
                  ("dir", Json.Str (Store.dir s));
                  ("entries", Json.Int (Store.entries s));
                ] );
          ])
  in
  Proto.Healthy { ok; detail }

(* ---- failure postmortems --------------------------------------------- *)

let fs_name_of id =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' -> c
      | _ -> '_')
    id

(* Dump the flight recorder's view of a failed request (deadline, pipeline
   error, panic — not bad-request noise) as JSONL: one header record, then
   every retained entry attributed to the request's trace id. *)
let dump_flight t (ctx : Obs.Ctx.t) (req : Proto.request) f =
  match t.config.flight_dir with
  | None -> ()
  | Some dir when Obs.Flight.enabled () -> (
      let module Json = Pipeline.Json in
      let trace = Obs.Ctx.id ctx in
      let header =
        Json.to_string
          (Json.Obj
             [
               ("flight", Json.Str "v1");
               ("id", Json.Str req.Proto.id);
               ("trace", Json.Str trace);
               ("kind", Json.Str (Proto.failure_kind f));
               ("error", Json.Str (Proto.failure_message f));
             ])
      in
      let body = Obs.Flight.to_jsonl (Obs.Flight.entries ~req:trace ()) in
      try
        if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
        let path =
          Filename.concat dir
            (Printf.sprintf "flight-%s-%s.jsonl" (fs_name_of req.Proto.id)
               (fs_name_of trace))
        in
        let oc = open_out path in
        output_string oc header;
        output_char oc '\n';
        output_string oc body;
        close_out oc
      with Sys_error _ -> ())
  | Some _ -> ()

let slow_log t (ctx : Obs.Ctx.t) (req : Proto.request) ~run_s ~memo0 ~cached
    ~timings body =
  match t.config.slow_ms with
  | Some ms when run_s *. 1000.0 >= ms ->
      let memo1 = Presburger.Hc.totals () in
      let stages =
        match body with
        | Proto.Failed f -> "failed:" ^ Proto.failure_kind f
        | _ when cached -> "cached"
        | _ when timings = [] -> "-"
        | _ ->
            timings
            |> List.map (fun (stage, s) ->
                   Printf.sprintf "%s=%.1fms" stage (s *. 1000.0))
            |> String.concat " "
      in
      Printf.eprintf
        "slow-request: id=%s trace=%s run_ms=%.1f memo-hits=+%d \
         memo-misses=+%d stages=[%s]\n\
         %!"
        req.Proto.id (Obs.Ctx.id ctx) (run_s *. 1000.0)
        (memo1.Presburger.Hc.hits - memo0.Presburger.Hc.hits)
        (memo1.Presburger.Hc.misses - memo0.Presburger.Hc.misses)
        stages
  | _ -> ()

let emit_outcome (req : Proto.request) ~cached body =
  Obs.Event.emit ~scope:"svc"
    ~name:
      (match body with
      | Proto.Failed _ -> "request.error"
      | Proto.Done _ | Proto.Stats _ | Proto.Healthy _ -> "request.done")
    ~severity:
      (match body with Proto.Failed _ -> Obs.Event.Warn | _ -> Obs.Event.Info)
    (fun () ->
      ("id", Obs.Event.Str req.Proto.id)
      :: ("cached", Obs.Event.Bool cached)
      ::
      (match body with
      | Proto.Failed f ->
          [
            ("kind", Obs.Event.Str (Proto.failure_kind f));
            ("why", Obs.Event.Str (Proto.failure_message f));
          ]
      | _ -> []))

let process t (req : Proto.request) ~submitted_ns =
  (* The request context: reuse the one the pool propagated from submit
     time, or mint one here (run_one, direct library calls).  Everything
     below — spans, events, worker-domain jobs — runs under it. *)
  let ctx =
    match Obs.Ctx.current () with Some c -> c | None -> Obs.Ctx.make ()
  in
  Obs.Ctx.with_ctx ctx @@ fun () ->
  let dequeued_ns = Obs.Clock.now_ns () in
  let queue_s =
    Int64.to_float (Int64.sub dequeued_ns submitted_ns) *. 1e-9
  in
  Obs.Histogram.observe queue_us (int_of_float (queue_s *. 1e6));
  (* Begin marker: the svc:request span only records when it closes, so
     without this a request that dies mid-flight would be invisible in
     its own flight dump. *)
  Obs.Event.emit ~severity:Obs.Event.Debug ~scope:"svc"
    ~name:"request.begin" (fun () ->
      [
        ("id", Obs.Event.Str req.Proto.id);
        ("mode", Obs.Event.Str (Proto.mode_name req.Proto.mode));
      ]);
  let memo0 = Presburger.Hc.totals () in
  let finish ?(timings = []) ~cached body =
    let run_s = Obs.Clock.elapsed_s dequeued_ns in
    Obs.Histogram.observe latency_us (int_of_float (run_s *. 1e6));
    Obs.Window.roll_if_due t.window;
    (* The outcome event goes out before any flight dump so the dump's
       body includes it (the request's begin breadcrumb is Debug and
       log-only; the failure event is the one flight-recorded record
       that names the failure). *)
    emit_outcome req ~cached body;
    (match body with
    | Proto.Failed (Proto.Bad_request _) | Proto.Done _ | Proto.Stats _
    | Proto.Healthy _ ->
        ()
    | Proto.Failed f -> dump_flight t ctx req f);
    slow_log t ctx req ~run_s ~memo0 ~cached ~timings body;
    {
      Proto.id = req.Proto.id;
      trace = Obs.Ctx.id ctx;
      cached;
      queue_s;
      run_s;
      body;
    }
  in
  match req.Proto.mode with
  | Proto.Metrics -> finish ~cached:false (stats_body t)
  | Proto.Health -> finish ~cached:false (health_body t)
  | Proto.Run | Proto.Classify ->
  Obs.Span.with_ ~name:"svc:request"
    ~args:[ ("id", req.Proto.id) ]
  @@ fun () ->
  let deadline =
    match req.Proto.deadline_s with
    | Some _ as d -> d
    | None -> t.config.deadline_s
  in
  let overrun () =
    match deadline with
    | None -> None
    | Some limit_s ->
        let elapsed_s =
          Int64.to_float (Int64.sub (Obs.Clock.now_ns ()) submitted_ns)
          *. 1e-9
        in
        if elapsed_s > limit_s then
          Some (Proto.Deadline { limit_s; elapsed_s })
        else None
  in
  match overrun () with
  | Some f -> finish ~cached:false (Proto.Failed f)
  | None -> (
      let prog =
        match req.Proto.source with
        | Proto.Prog p -> (
            match Loopir.Ast.reused_index p with
            | None -> Ok p
            | Some v ->
                Error
                  (Printf.sprintf
                     "%s: loop index %s reuses the index of an enclosing loop"
                     req.Proto.name v))
        | Proto.Src s -> (
            match Loopir.Parser.parse ~name:req.Proto.name s with
            | p -> Ok p
            | exception Loopir.Parser.Error (msg, line) ->
                Error
                  (Printf.sprintf "%s: parse error at line %d: %s"
                     req.Proto.name line msg))
      in
      match prog with
      | Error msg -> finish ~cached:false (Proto.Failed (Proto.Bad_request msg))
      | Ok prog -> (
          let threads =
            Option.value req.Proto.threads ~default:t.config.threads
          in
          let key =
            Key.of_request ?strategy:req.Proto.strategy
              ~extra:
                [
                  "mode=" ^ Proto.mode_name req.Proto.mode;
                  Printf.sprintf "threads=%d" threads;
                  Printf.sprintf "check=%b" t.config.check;
                  Printf.sprintf "measure=%b" t.config.check;
                  Printf.sprintf "survey=%b" req.Proto.survey;
                ]
              ~params:req.Proto.params prog
          in
          match Cache.find t.cache ~usable:Proto.readable key with
          | Some payload ->
              Obs.Event.emit ~severity:Obs.Event.Debug
                ~scope:"svc" ~name:"cache.hit" (fun () ->
                  [ ("key", Obs.Event.Str (Key.to_string key)) ]);
              finish ~cached:true
                (Proto.Done { payload; name = req.Proto.name })
          | None -> (
              (* A payload behind another build's tag is a miss; the
                 recomputed one overwrites it, on disk too. *)
              Obs.Event.emit ~severity:Obs.Event.Debug
                ~scope:"svc" ~name:"cache.miss" (fun () ->
                  [ ("key", Obs.Event.Str (Key.to_string key)) ]);
              let outcome =
                try
                  Obs.Span.with_ ~name:"svc:analyze"
                    ~args:[ ("id", req.Proto.id) ] (fun () ->
                      compute t req prog ~threads)
                with e -> Error (Proto.Panic (Printexc.to_string e))
              in
              match outcome with
              | Error f -> finish ~cached:false (Proto.Failed f)
              | Ok (payload, timings) -> (
                  Cache.add t.cache key payload;
                  (* The result is cached even when this requester ran past
                     its deadline: the work is done and the next hit is
                     free; only this response reports the overrun. *)
                  match overrun () with
                  | Some f -> finish ~cached:false (Proto.Failed f)
                  | None ->
                      finish ~timings ~cached:false
                        (Proto.Done { payload; name = req.Proto.name })))))

let run_one t (req : Proto.request) =
  let submitted_ns = Obs.Clock.now_ns () in
  try process t req ~submitted_ns
  with e -> Proto.error_response ~id:req.Proto.id (Proto.Panic (Printexc.to_string e))

type admission =
  | Accepted
  | Shed of { queue_depth : int; queue_capacity : int }

(* Hand one run/classify request to the pool: mint its context, note
   the submission, and install the context around [enqueue], which
   captures it with the job, so the dequeue event and every span/event of
   the pooled run carry this trace id.  The job answers [k], a panic
   included. *)
let enqueue_request t (req : Proto.request) ~enqueue ~k =
  let ctx = Obs.Ctx.make () in
  Obs.Ctx.with_ctx ctx @@ fun () ->
  Obs.Event.emit ~severity:Obs.Event.Debug ~scope:"svc" ~name:"request.submit"
    (fun () -> [ ("id", Obs.Event.Str req.Proto.id) ]);
  let submitted_ns = Obs.Clock.now_ns () in
  enqueue (fun () ->
      k
        (try process t req ~submitted_ns
         with e ->
           Proto.error_response ~id:req.Proto.id ~trace:(Obs.Ctx.id ctx)
             (Proto.Panic (Printexc.to_string e))))

(* Asynchronous admission for the network server: one request, one
   continuation, no blocking.  Introspective ops are answered inline on
   the caller (they read registries, never the pool); everything else is
   try-submitted — a full queue sheds the request instead of stalling
   the socket reader, and the caller renders the typed [overloaded]
   record itself (it owns the response ordering). *)
let submit t (req : Proto.request) ~k =
  if Proto.introspective req.Proto.mode then begin
    k (run_one t req);
    Accepted
  end
  else if enqueue_request t req ~enqueue:(Runtime.Workers.try_submit t.pool) ~k
  then Accepted
  else
    Shed
      {
        queue_depth = Runtime.Workers.queue_length t.pool;
        queue_capacity = Runtime.Workers.capacity t.pool;
      }

let batch t reqs =
  let reqs = Array.of_list reqs in
  let n = Array.length reqs in
  let out = Array.make n None in
  let m = Mutex.create () in
  let all_done = Condition.create () in
  let pooled (req : Proto.request) =
    not (Proto.introspective req.Proto.mode)
  in
  let remaining =
    ref (Array.fold_left (fun k r -> if pooled r then k + 1 else k) 0 reqs)
  in
  Array.iteri
    (fun i (req : Proto.request) ->
      if pooled req then
        enqueue_request t req ~enqueue:(Runtime.Workers.submit t.pool)
          ~k:(fun resp ->
            out.(i) <- Some resp;
            Mutex.lock m;
            decr remaining;
            if !remaining = 0 then Condition.signal all_done;
            Mutex.unlock m))
    reqs;
  Mutex.lock m;
  while !remaining > 0 do
    Condition.wait all_done m
  done;
  Mutex.unlock m;
  (* Introspective ops run after the pooled work has drained, so a
     trailing metrics/health line observes the whole batch — and a
     deterministic cache hit-rate — rather than a race-dependent prefix. *)
  Array.iteri
    (fun i (req : Proto.request) ->
      if not (pooled req) then out.(i) <- Some (run_one t req))
    reqs;
  Array.to_list
    (Array.map (function Some r -> r | None -> assert false) out)
