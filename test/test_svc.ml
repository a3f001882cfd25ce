(* Tests for the analysis service layer: content-addressed keys (format
   insensitivity, alpha-renaming, determinism), the sharded LRU cache
   (eviction order, capacity, multi-domain consistency), the service's
   domain pool (Runtime.Workers admission: drain-on-shutdown, panic
   isolation, nested runs, shedding, pool-of-1 ≡ sequential), the JSONL
   protocol, and end-to-end service behavior (cache hits on
   duplicates, per-request error isolation, deadlines). *)

module Key = Svc.Key
module Cache = Svc.Cache
module Workers = Runtime.Workers
module Proto = Svc.Proto
module Service = Svc.Service

let parse name src = Loopir.Parser.parse ~name src

let contains sub s =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Key                                                                  *)

let base_src = "DO i = 1, n\n  DO j = 1, i\n    A(i+j, j) = A(j, i)\n  ENDDO\nENDDO\n"

let test_key_whitespace_comments () =
  let a = parse "a" base_src in
  let b =
    parse "b"
      "! a comment line\n\
       DO   i = 1,   n   ! trailing comment\n\
       DO j = 1, i\n\
       \    A( i + j , j ) = A( j , i )\n\
       ENDDO\n\
       \n\
       ENDDO\n"
  in
  let k p = Key.to_string (Key.of_request ~params:[ ("n", 10) ] p) in
  Alcotest.(check string)
    "whitespace/comments/program name do not change the key" (k a) (k b)

let test_key_alpha_renaming () =
  let a = parse "a" base_src in
  let b =
    parse "b"
      "DO outer = 1, n\n\
      \  DO q = 1, outer\n\
      \    A(outer+q, q) = A(q, outer)\n\
      \  ENDDO\n\
       ENDDO\n"
  in
  let k p = Key.to_string (Key.of_request ~params:[ ("n", 10) ] p) in
  Alcotest.(check string) "loop index names do not change the key" (k a) (k b);
  (* ... but the renaming respects binding structure: swapping which index
     appears in the subscripts is a different program. *)
  let c =
    parse "c"
      "DO i = 1, n\n\
      \  DO j = 1, i\n\
      \    A(i+j, i) = A(i, j)\n\
      \  ENDDO\n\
       ENDDO\n"
  in
  Alcotest.(check bool)
    "swapped subscript roles is a different key" false
    (k a = k c)

let test_key_params_and_strategy () =
  let p = parse "p" base_src in
  let k ?strategy params = Key.to_string (Key.of_request ?strategy ~params p) in
  Alcotest.(check bool)
    "a relevant binding changes the key" false
    (k [ ("n", 10) ] = k [ ("n", 11) ]);
  Alcotest.(check string)
    "an irrelevant binding does not" (k [ ("n", 10) ])
    (k [ ("n", 10); ("unused", 99) ]);
  Alcotest.(check string)
    "binding order does not"
    (k [ ("n", 10); ("unused", 1) ])
    (k [ ("unused", 1); ("n", 10) ]);
  Alcotest.(check bool)
    "a forced strategy changes the key" false
    (k [ ("n", 10) ] = k ~strategy:Pipeline.Plan.Rec [ ("n", 10) ])

(* If this digest changes, every persisted cache key in the wild is
   silently invalidated — bump it only with a deliberate key-format
   change. *)
let test_key_determinism () =
  let k () =
    Key.to_string
      (Key.of_request ~params:[ ("n1", 30); ("n2", 40) ]
         Loopir.Builtin.example1)
  in
  Alcotest.(check string) "key is deterministic" (k ()) (k ());
  Alcotest.(check string) "key format regression"
    "bfca8dbe905073d674d245c3d40ff815" (k ())

(* ------------------------------------------------------------------ *)
(* Cache                                                                *)

(* Every value is usable: these cases check the LRU itself. *)
let any _ = true

(* Distinct keys from distinct parameter bindings of one program. *)
let key_of_int =
  let p = parse "keygen" base_src in
  fun i -> Key.of_request ~params:[ ("n", i) ] p

let test_cache_lru_order () =
  let c = Cache.create ~shards:1 ~capacity:3 ~name:"t-lru" () in
  let k = Array.init 4 key_of_int in
  Cache.add c k.(0) "a";
  Cache.add c k.(1) "b";
  Cache.add c k.(2) "c";
  (* refresh a, so b is now least recently used *)
  Alcotest.(check (option string)) "hit a" (Some "a")
    (Cache.find ~usable:any c k.(0));
  Cache.add c k.(3) "d";
  Alcotest.(check (option string)) "b evicted" None
    (Cache.find ~usable:any c k.(1));
  Alcotest.(check (option string)) "a kept" (Some "a")
    (Cache.find ~usable:any c k.(0));
  Alcotest.(check (option string)) "c kept" (Some "c")
    (Cache.find ~usable:any c k.(2));
  Alcotest.(check (option string)) "d kept" (Some "d")
    (Cache.find ~usable:any c k.(3));
  Alcotest.(check int) "still 3 entries" 3 (Cache.length c)

let test_cache_capacity_bound () =
  let c = Cache.create ~shards:4 ~capacity:10 ~name:"t-cap" () in
  let effective = (Cache.stats c).Cache.capacity in
  Alcotest.(check bool)
    "effective capacity covers requested" true (effective >= 10);
  for i = 1 to 100 do
    Cache.add c (key_of_int i) (string_of_int i)
  done;
  Alcotest.(check bool)
    (Printf.sprintf "length %d <= effective capacity %d" (Cache.length c)
       effective)
    true
    (Cache.length c <= effective);
  let st = Cache.stats c in
  Alcotest.(check int) "size matches length" (Cache.length c) st.Cache.size;
  Alcotest.(check bool) "evictions happened" true (st.Cache.evictions > 0)

let test_cache_concurrent () =
  let c = Cache.create ~shards:8 ~capacity:16 ~name:"t-conc" () in
  let before = Cache.stats c in
  let keys = Array.init 32 key_of_int in
  let lookups_per_domain = 1_000 in
  let worker seed () =
    let state = ref seed in
    for _ = 1 to lookups_per_domain do
      (* xorshift: cheap deterministic per-domain key sequence *)
      state := !state lxor (!state lsl 13);
      state := !state lxor (!state lsr 7);
      state := !state lxor (!state lsl 17);
      let i = abs !state mod Array.length keys in
      match Cache.find ~usable:any c keys.(i) with
      | Some _ -> ()
      | None -> Cache.add c keys.(i) "v"
    done
  in
  let domains = List.init 4 (fun d -> Domain.spawn (worker (d + 1))) in
  List.iter Domain.join domains;
  let st = Cache.stats c in
  let hits = st.Cache.hits - before.Cache.hits in
  let misses = st.Cache.misses - before.Cache.misses in
  Alcotest.(check int)
    "every lookup was a hit or a miss"
    (4 * lookups_per_domain)
    (hits + misses);
  Alcotest.(check bool) "some hits" true (hits > 0);
  Alcotest.(check bool)
    "size within capacity" true
    (st.Cache.size <= st.Cache.capacity);
  Alcotest.(check int) "length agrees with stats" st.Cache.size
    (Cache.length c)

(* ------------------------------------------------------------------ *)
(* Pool                                                                 *)

let test_pool_shutdown_drains () =
  let pool = Workers.spawn ~queue_capacity:8 ~domains:2 () in
  let done_count = Atomic.make 0 in
  for _ = 1 to 50 do
    Workers.submit pool (fun () -> Atomic.incr done_count)
  done;
  Workers.shutdown pool;
  Alcotest.(check int) "all queued jobs ran" 50 (Atomic.get done_count);
  Alcotest.(check bool)
    "submit after shutdown raises Closed" true
    (match Workers.submit pool (fun () -> ()) with
    | () -> false
    | exception Workers.Closed -> true)

let test_pool_panic_isolation () =
  let panics = Obs.Counter.make "runtime.workers.panics" in
  let before = Obs.Counter.value panics in
  let pool = Workers.spawn ~queue_capacity:4 ~domains:2 () in
  let ok = Atomic.make 0 in
  for i = 1 to 20 do
    if i mod 2 = 0 then Workers.submit pool (fun () -> failwith "boom")
    else Workers.submit pool (fun () -> Atomic.incr ok)
  done;
  Workers.shutdown pool;
  Alcotest.(check int) "good jobs all completed" 10 (Atomic.get ok);
  Alcotest.(check int) "panics counted" 10 (Obs.Counter.value panics - before)

(* An admitted job may call [run] on its own pool, as a request does for
   its execution chunks and DNF disjuncts.  On one domain the job is the
   only drainer; on two the idle domain helps. *)
let test_pool_admitted_jobs_run () =
  List.iter
    (fun domains ->
      let pool = Workers.spawn ~domains () in
      let sums = Array.make 8 0 in
      for j = 0 to 7 do
        Workers.submit pool (fun () ->
            let r = Workers.run pool (Array.init 16 (fun i () -> (i * j) + 1)) in
            sums.(j) <- Array.fold_left ( + ) 0 r)
      done;
      Workers.shutdown pool;
      Array.iteri
        (fun j s ->
          Alcotest.(check int)
            (Printf.sprintf "%d domains: job %d's run" domains j)
            ((120 * j) + 16)
            s)
        sums)
    [ 1; 2 ]

(* The drain rule: a [run] caller drains run jobs, never admitted ones.
   Admitted job [a] runs [t0] itself while [t1] runs on the pool's other
   domain; [t0] queues admitted job [b] and returns.  [a]'s domain then
   finds the run queue empty and must wait at the barrier, not take [b],
   so [b] cannot start before [t1] finishes. *)
let test_pool_run_skips_admissions () =
  let pool = Workers.spawn ~domains:2 () in
  let t1_started = Atomic.make false and b_started = Atomic.make false in
  let seen = ref [||] in
  Workers.submit pool (fun () ->
      seen :=
        Workers.run pool
          [|
            (fun () ->
              while not (Atomic.get t1_started) do
                Domain.cpu_relax ()
              done;
              Workers.submit pool (fun () -> Atomic.set b_started true);
              false);
            (fun () ->
              Atomic.set t1_started true;
              Unix.sleepf 0.02;
              Atomic.get b_started);
          |]);
  (* Shut down only once [b] has run: a closing pool lets an idle domain
     exit, and [t1] needs the second domain. *)
  let deadline = Unix.gettimeofday () +. 10.0 in
  while (not (Atomic.get b_started)) && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.001
  done;
  Workers.shutdown pool;
  Alcotest.(check bool) "b ran after a" true (Atomic.get b_started);
  Alcotest.(check (array bool)) "b never started during a's run"
    [| false; false |] !seen

(* Run jobs never count against the admission capacity: with a's run
   leaving 9 jobs in the run queue, a one-slot queue still admits one
   job, and sheds only the next. *)
let test_pool_shed_counts_admissions_only () =
  let pool = Workers.spawn ~queue_capacity:1 ~domains:1 () in
  let in_run = Atomic.make false and release = Atomic.make false in
  let ran = Atomic.make 0 in
  Workers.submit pool (fun () ->
      ignore
        (Workers.run pool
           (Array.init 10 (fun i () ->
                if i = 0 then begin
                  Atomic.set in_run true;
                  while not (Atomic.get release) do
                    Domain.cpu_relax ()
                  done
                end;
                Atomic.incr ran))));
  while not (Atomic.get in_run) do
    Domain.cpu_relax ()
  done;
  let first = Workers.try_submit pool (fun () -> Atomic.incr ran) in
  let second = Workers.try_submit pool (fun () -> Atomic.incr ran) in
  Atomic.set release true;
  Workers.shutdown pool;
  Alcotest.(check bool) "admitted beside 9 queued run jobs" true first;
  Alcotest.(check bool) "shed once the admission slot is taken" false second;
  Alcotest.(check int) "every accepted job ran" 11 (Atomic.get ran)

(* A pool of one domain must produce exactly what the calling domain
   produces: the same status, and for an answer the same encoded body
   (strategy and survey, byte for byte). *)
let test_pool_of_one_sequential () =
  let config =
    {
      Service.default_config with
      domains = 1;
      threads = 1;
      check = false;
    }
  in
  let requests =
    List.map
      (fun (name, prog) ->
        Proto.request ~id:name ~name
          ~params:(List.map (fun p -> (p, 8)) prog.Loopir.Ast.params)
          ~mode:Proto.Classify (Proto.Prog prog))
      Loopir.Builtin.corpus
  in
  let pooled = Service.create ~config () in
  let via_pool = Service.batch pooled requests in
  Service.shutdown pooled;
  let direct = Service.create ~config () in
  let via_caller = List.map (Service.run_one direct) requests in
  Service.shutdown direct;
  let essence (r : Proto.response) =
    ( r.Proto.id,
      match r.Proto.body with
      | Proto.Done { payload; _ } -> Ok payload
      | Proto.Failed f -> Error (Proto.failure_kind f)
      | Proto.Stats _ | Proto.Healthy _ -> Error "introspective" )
  in
  Alcotest.(check int)
    "one response per request"
    (List.length requests)
    (List.length via_pool);
  List.iter2
    (fun a b ->
      Alcotest.(check bool)
        (Printf.sprintf "pool-of-1 matches sequential for %s"
           (fst (essence a)))
        true
        (essence a = essence b))
    via_pool via_caller

(* ------------------------------------------------------------------ *)
(* Proto                                                                *)

let test_proto_round_trip () =
  let req =
    Proto.request ~id:"r1" ~name:"nest"
      ~params:[ ("n", 30); ("m", 4) ]
      ~strategy:Pipeline.Plan.Rec ~threads:3 ~mode:Proto.Classify
      ~survey:true ~deadline_s:2.5 (Proto.Src base_src)
  in
  let line = Pipeline.Json.to_string (Proto.request_to_json req) in
  match Proto.request_of_line line with
  | Error f -> Alcotest.failf "round trip failed: %s" f.Proto.message
  | Ok got ->
      Alcotest.(check string) "id" req.Proto.id got.Proto.id;
      Alcotest.(check string) "name" req.Proto.name got.Proto.name;
      Alcotest.(check bool) "params" true (got.Proto.params = req.Proto.params);
      Alcotest.(check bool)
        "strategy" true
        (got.Proto.strategy = Some Pipeline.Plan.Rec);
      Alcotest.(check bool) "threads" true (got.Proto.threads = Some 3);
      Alcotest.(check bool) "mode" true (got.Proto.mode = Proto.Classify);
      Alcotest.(check bool) "survey" true got.Proto.survey;
      Alcotest.(check bool)
        "deadline" true
        (got.Proto.deadline_s = Some 2.5);
      (* and the parsed source hashes like the original program *)
      let prog_of r =
        match r.Proto.source with
        | Proto.Prog p -> p
        | Proto.Src s -> parse r.Proto.name s
      in
      Alcotest.(check string) "source survives"
        (Key.to_string
           (Key.of_request ~params:req.Proto.params (prog_of req)))
        (Key.to_string
           (Key.of_request ~params:req.Proto.params (prog_of got)))

let test_proto_malformed_lines () =
  let expect_error ?line_id line what =
    match Proto.request_of_line line with
    | Ok _ -> Alcotest.failf "%s unexpectedly parsed" what
    | Error f ->
        Alcotest.(check (option string))
          (what ^ ": line_id")
          line_id f.Proto.line_id
  in
  expect_error "not json at all" "garbage";
  expect_error "[1,2]" "non-object";
  expect_error {|{"name":"x","src":"DO"}|} "missing id";
  expect_error ~line_id:"r9" {|{"id":"r9","name":"x"}|} "missing src";
  expect_error ~line_id:"r9"
    {|{"id":"r9","name":"x","src":"A(1)=2","strategy":"zigzag"}|}
    "unknown strategy";
  expect_error ~line_id:"r9"
    {|{"id":"r9","name":"x","src":"A(1)=2","threads":0}|}
    "bad thread count";
  expect_error {|{"id":"\uZZZZ"}|} "non-hex \\u escape"

(* Outside input never crashes the decoder: lines of JSON tokens mixed
   with [\u] escapes followed by four arbitrary bytes decode to [Ok] or
   [Error]; a [Failure] escaping from [Json.parse] used to kill the
   connection's reader thread. *)
let prop_request_of_line_total =
  let token =
    QCheck2.Gen.(
      frequency
        [
          ( 3,
            oneofl
              [
                "{"; "}"; "["; "]"; ":"; ","; " "; "\""; {|"id"|}; {|"name"|};
                {|"src"|}; {|"params"|}; "12"; "-2.5e3"; "true"; "null";
              ] );
          (1, map (fun b -> "\\u" ^ b) (string_size ~gen:char (return 4)));
        ])
  in
  QCheck2.Test.make ~name:"request_of_line never raises" ~count:1000
    ~print:(Printf.sprintf "%S")
    QCheck2.Gen.(map (String.concat "") (list_size (int_range 1 12) token))
    (fun line ->
      match Proto.request_of_line line with Ok _ | Error _ -> true)

(* ------------------------------------------------------------------ *)
(* Service                                                              *)

let quiet_config ~domains =
  {
    Service.default_config with
    domains;
    threads = 1;
    check = false;
  }

(* With one worker the batch is sequential, so every duplicate after the
   first must be a cache hit — no miss race is possible. *)
let test_service_duplicate_hits () =
  let svc = Service.create ~config:(quiet_config ~domains:1) () in
  let before = Service.cache_stats svc in
  let requests =
    List.concat_map
      (fun copy ->
        List.map
          (fun (name, prog) ->
            Proto.request
              ~id:(Printf.sprintf "%s#%d" name copy)
              ~name
              ~params:(List.map (fun p -> (p, 8)) prog.Loopir.Ast.params)
              ~mode:Proto.Classify (Proto.Prog prog))
          [
            ("example1", Loopir.Builtin.example1);
            ("fig2", Loopir.Builtin.fig2);
            ("example2", Loopir.Builtin.example2);
          ])
      [ 0; 1; 2; 3 ]
  in
  let responses = Service.batch svc requests in
  let after = Service.cache_stats svc in
  Service.shutdown svc;
  Alcotest.(check int) "one response per request" 12 (List.length responses);
  List.iter
    (fun (r : Proto.response) ->
      Alcotest.(check bool) (r.Proto.id ^ " ok") true (Proto.ok r))
    responses;
  Alcotest.(check int) "three copies of each nest hit" 9
    (after.Cache.hits - before.Cache.hits);
  let cached =
    List.length (List.filter (fun r -> r.Proto.cached) responses)
  in
  Alcotest.(check int) "responses marked cached" 9 cached

let splinter_src =
  "DO i = 1, 6\n\
  \  DO j = 1, 6\n\
  \    DO k = 1, 6\n\
  \      a(-1*i + 3*j + -1*k + 4, 2*j + 3*k + 3) = a(3*i + 1*k + 4, -1*i + \
   2*j + 1*k + 2)\n\
  \    ENDDO\n\
  \  ENDDO\n\
   ENDDO\n"

let test_service_error_isolation () =
  let svc = Service.create ~config:(quiet_config ~domains:2) () in
  let good =
    Proto.request ~id:"good" ~name:"good" ~params:[ ("n", 8) ]
      ~mode:Proto.Classify (Proto.Src base_src)
  in
  let bad =
    Proto.request ~id:"bad" ~name:"bad" ~mode:Proto.Classify
      (Proto.Src "DO i = 1, n\n  oops oops(\nENDDO")
  in
  let unbound =
    (* params missing the nest's symbolic bound *)
    Proto.request ~id:"unbound" ~name:"unbound" ~params:[]
      ~mode:Proto.Classify (Proto.Src base_src)
  in
  let blowup =
    (* Omega splinters used to exhaust memory on this nest and take the
       whole process down; the analysis now fails typed. *)
    Proto.request ~id:"blowup" ~name:"blowup" ~mode:Proto.Classify
      (Proto.Src splinter_src)
  in
  let responses = Service.batch svc [ blowup; good; bad; unbound ] in
  Service.shutdown svc;
  match responses with
  | [ x; g; b; u ] ->
      (match x.Proto.body with
      | Proto.Failed (Proto.Pipeline_error { label; _ }) ->
          Alcotest.(check string)
            "set-algebra blowup surfaces its label" "set-blowup" label
      | _ -> Alcotest.fail "splinter blowup should be a pipeline error");
      Alcotest.(check bool) "good succeeded" true (Proto.ok g);
      (match b.Proto.body with
      | Proto.Failed (Proto.Bad_request _) -> ()
      | _ -> Alcotest.fail "parse failure should be a bad-request record");
      (match u.Proto.body with
      | Proto.Failed (Proto.Pipeline_error { label; _ }) ->
          Alcotest.(check string)
            "unbound parameter surfaces its label" "unbound-parameter" label
      | _ -> Alcotest.fail "unbound parameter should be a pipeline error")
  | rs -> Alcotest.failf "expected 4 responses, got %d" (List.length rs)

let test_service_reused_index () =
  (* A nest that reuses an enclosing loop's index is a bad request, from
     source text or from an AST, and is never analysed. *)
  let src =
    "DO i = 1, 3\n  DO i = 5, 6\n    a(i) = a(i) + 1.0\n  ENDDO\nENDDO"
  in
  let inner =
    Loopir.Parser.parse ~name:"inner" "DO i = 5, 6\n  a(i) = 1.0\nENDDO"
  in
  let prog =
    Loopir.Ast.program ~name:"ast"
      [
        Loopir.Ast.Loop
          {
            index = "i";
            lo = Loopir.Ast.Int 1;
            hi = Loopir.Ast.Int 3;
            step = 1;
            body = inner.Loopir.Ast.body;
          };
      ]
  in
  let svc = Service.create ~config:(quiet_config ~domains:1) () in
  let responses =
    Service.batch svc
      [
        Proto.request ~id:"src" ~name:"src" (Proto.Src src);
        Proto.request ~id:"ast" ~name:"ast" (Proto.Prog prog);
      ]
  in
  Service.shutdown svc;
  let msg = "loop index i reuses the index of an enclosing loop" in
  List.iter2
    (fun (r : Proto.response) want ->
      match r.Proto.body with
      | Proto.Failed (Proto.Bad_request m) ->
          Alcotest.(check string) r.Proto.id want m
      | _ -> Alcotest.failf "%s: expected a bad-request record" r.Proto.id)
    responses
    [ "src: parse error at line 2: " ^ msg; "ast: " ^ msg ]

let test_service_deadline () =
  let svc = Service.create ~config:(quiet_config ~domains:1) () in
  let req =
    Proto.request ~id:"late" ~name:"late" ~params:[ ("n", 8) ]
      ~deadline_s:0.0 (Proto.Src base_src)
  in
  let r = Service.run_one svc req in
  Service.shutdown svc;
  match r.Proto.body with
  | Proto.Failed (Proto.Deadline { limit_s; elapsed_s }) ->
      Alcotest.(check (float 0.0)) "limit echoed" 0.0 limit_s;
      Alcotest.(check bool) "elapsed recorded" true (elapsed_s >= 0.0)
  | _ -> Alcotest.fail "zero deadline should fail with a deadline record"

(* ------------------------------------------------------------------ *)
(* Telemetry ops and request tracing                                    *)

let classify_corpus ~copies =
  List.concat_map
    (fun copy ->
      List.map
        (fun (name, prog) ->
          Proto.request
            ~id:(Printf.sprintf "%s#%d" name copy)
            ~name
            ~params:(List.map (fun p -> (p, 8)) prog.Loopir.Ast.params)
            ~mode:Proto.Classify (Proto.Prog prog))
        [
          ("example1", Loopir.Builtin.example1);
          ("fig2", Loopir.Builtin.fig2);
        ])
    (List.init copies Fun.id)

(* A batch ending in a metrics op: the op is answered after the pooled
   analysis drains, so its snapshot must already show this batch's cache
   hits, and both renderings must be well-formed. *)
let test_service_metrics_op () =
  let svc = Service.create ~config:(quiet_config ~domains:2) () in
  let metrics_req = Proto.request ~id:"m0" ~mode:Proto.Metrics ~name:"metrics" (Proto.Src "") in
  let responses = Service.batch svc (classify_corpus ~copies:3 @ [ metrics_req ]) in
  Service.shutdown svc;
  let m =
    match List.rev responses with
    | last :: _ -> last
    | [] -> Alcotest.fail "no responses"
  in
  Alcotest.(check string) "metrics response id" "m0" m.Proto.id;
  Alcotest.(check bool) "metrics response traced" true (m.Proto.trace <> "");
  match m.Proto.body with
  | Proto.Stats { prometheus; snapshot } ->
      Alcotest.(check bool)
        "prometheus names sanitized" true
        (contains "recpart_svc_cache_results_hits" prometheus);
      (match snapshot with
      | Pipeline.Json.Obj fields -> (
          match List.assoc_opt "counters" fields with
          | Some (Pipeline.Json.Obj counters) -> (
              match List.assoc_opt "svc.cache.results.hits" counters with
              | Some (Pipeline.Json.Int hits) ->
                  Alcotest.(check bool)
                    "duplicate-heavy batch shows cache hits" true (hits > 0)
              | _ -> Alcotest.fail "svc.cache.results.hits missing")
          | _ -> Alcotest.fail "counters block missing")
      | _ -> Alcotest.fail "snapshot is not an object");
      (* the wire form of the response must itself parse *)
      (match Pipeline.Json.parse (Proto.response_to_line m) with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "metrics response line: %s" e)
  | _ -> Alcotest.fail "metrics op should answer with Stats"

let test_service_health_op () =
  let svc = Service.create ~config:(quiet_config ~domains:2) () in
  let r =
    Service.run_one svc
      (Proto.request ~id:"h0" ~mode:Proto.Health ~name:"health" (Proto.Src ""))
  in
  Service.shutdown svc;
  match r.Proto.body with
  | Proto.Healthy { ok; detail } ->
      Alcotest.(check bool) "freshly created service is healthy" true ok;
      (match detail with
      | Pipeline.Json.Obj fields ->
          List.iter
            (fun key ->
              Alcotest.(check bool) (key ^ " block present") true
                (List.mem_assoc key fields))
            [ "pool"; "cache"; "windows" ];
          (* one pool: its spawned domains are the configured domains *)
          Alcotest.(check (option int))
            "pool.spawned = domains" (Some 2)
            (match List.assoc_opt "pool" fields with
            | Some pool -> (
                match Pipeline.Json.member "spawned" pool with
                | Some (Pipeline.Json.Int n) -> Some n
                | _ -> None)
            | None -> None)
      | _ -> Alcotest.fail "health detail is not an object")
  | _ -> Alcotest.fail "health op should answer with Healthy"

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* A deadline-failed request must leave a flight-recorder postmortem
   containing its id and trace id. *)
let test_service_deadline_flight_dump () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ()) "recpart-test-flight"
  in
  rm_rf dir;
  let config = { (quiet_config ~domains:1) with flight_dir = Some dir } in
  let svc = Service.create ~config () in
  let r =
    Service.run_one svc
      (Proto.request ~id:"late" ~name:"late" ~params:[ ("n", 8) ]
         ~deadline_s:0.0 (Proto.Src base_src))
  in
  Service.shutdown svc;
  (match r.Proto.body with
  | Proto.Failed (Proto.Deadline _) -> ()
  | _ -> Alcotest.fail "zero deadline should fail with a deadline record");
  Alcotest.(check bool) "response traced" true (r.Proto.trace <> "");
  let dumps =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f ->
           String.length f >= 7 && String.sub f 0 7 = "flight-")
  in
  (match dumps with
  | [ file ] ->
      let ic = open_in (Filename.concat dir file) in
      let len = in_channel_length ic in
      let content = really_input_string ic len in
      close_in ic;
      Alcotest.(check bool) "dump names the request" true
        (contains "late" file);
      Alcotest.(check bool) "dump carries the trace id" true
        (contains r.Proto.trace content);
      Alcotest.(check bool) "dump records the failure kind" true
        (contains "deadline" content)
  | files ->
      Alcotest.failf "expected exactly one flight dump, found %d"
        (List.length files));
  rm_rf dir

(* Every service span recorded during a pooled batch must carry the
   originating request's trace id — including the ones that ran on pool
   worker domains, which is where the Ctx propagation could break. *)
let test_service_spans_carry_req () =
  let log = Obs.Event.make () in
  let responses =
    Obs.Event.with_ambient log (fun () ->
        let svc = Service.create ~config:(quiet_config ~domains:2) () in
        let responses = Service.batch svc (classify_corpus ~copies:2) in
        Service.shutdown svc;
        responses)
  in
  let traces =
    List.filter_map
      (fun (r : Proto.response) ->
        if r.Proto.trace = "" then None else Some r.Proto.trace)
      responses
  in
  Alcotest.(check int) "every response traced" (List.length responses)
    (List.length traces);
  let svc_spans =
    List.filter
      (fun (s : Obs.Event.event) ->
        String.length s.Obs.Event.name >= 4
        && String.sub s.Obs.Event.name 0 4 = "svc:")
      (Obs.Event.spans log)
  in
  Alcotest.(check bool) "batch recorded service spans" true (svc_spans <> []);
  let main_tid = (Domain.self () :> int) in
  let off_main = ref false in
  List.iter
    (fun (s : Obs.Event.event) ->
      match List.assoc_opt "req" s.Obs.Event.fields with
      | Some (Obs.Event.Str req) ->
          if s.Obs.Event.tid <> main_tid then off_main := true;
          Alcotest.(check bool)
            (Printf.sprintf "span %s req is a batch trace" s.Obs.Event.name)
            true (List.mem req traces)
      | _ -> Alcotest.failf "span %s lost its request id" s.Obs.Event.name)
    svc_spans;
  Alcotest.(check bool) "spans ran on pool worker domains" true !off_main

(* ------------------------------------------------------------------ *)

(* ------------------------------------------------------------------ *)
(* A hit replays the miss's bytes                                       *)

let envelope_keys =
  [ "id"; "trace"; "status"; "cached"; "queue_seconds"; "run_seconds" ]

(* The bytes of a reply line after its envelope: the envelope is the
   line's first six members, and everything after the last one's number
   is the body. *)
let body_bytes (r : Proto.response) =
  let line = Proto.response_to_line r in
  (match Pipeline.Json.parse line with
  | Ok (Pipeline.Json.Obj fields) ->
      Alcotest.(check (list string))
        (r.Proto.id ^ ": the envelope leads the line")
        envelope_keys
        (List.filteri (fun i _ -> i < 6) (List.map fst fields))
  | _ -> Alcotest.failf "%s: the reply line is not an object" r.Proto.id);
  let key = "\"run_seconds\":" in
  let rec find i =
    if String.sub line i (String.length key) = key then i + String.length key
    else find (i + 1)
  in
  let rec past_number j =
    match line.[j] with ',' | '}' -> j | _ -> past_number (j + 1)
  in
  let j = past_number (find 0) in
  String.sub line j (String.length line - j)

let replace_first ~sub ~by s =
  let n = String.length sub in
  let rec go i =
    if i + n > String.length s then Alcotest.failf "%S not in the body" sub
    else if String.sub s i n = sub then
      String.sub s 0 i ^ by ^ String.sub s (i + n) (String.length s - i - n)
    else go (i + 1)
  in
  go 0

let report_program (r : Proto.response) =
  match Pipeline.Json.parse (Proto.response_to_line r) with
  | Ok j -> (
      match Option.bind (Pipeline.Json.member "report" j) (Pipeline.Json.member "program") with
      | Some (Pipeline.Json.Str p) -> Some p
      | _ -> None)
  | Error e -> Alcotest.failf "%s: %s" r.Proto.id e

(* A memory hit, a disk-warm hit (a fresh service on the same store) and
   a hit under another name write the bytes the miss wrote after the
   envelope; under another name only the report's program differs, and
   it is escaped as the encoder escapes a string. *)
let test_service_hit_replays_miss () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "recpart-test-replay-%d" (Unix.getpid ()))
  in
  rm_rf dir;
  let config =
    {
      (quiet_config ~domains:1) with
      check = true;
      store_dir = Some dir;
    }
  in
  let other = "an \"other\"\\name\n" in
  List.iter
    (fun mode ->
      let what = Proto.mode_name mode in
      let req ?(name = "tri") id =
        Proto.request ~id:(what ^ "-" ^ id) ~name ~mode
          ~params:[ ("n", 12) ] (Proto.Src base_src)
      in
      let svc = Service.create ~config () in
      let miss = Service.run_one svc (req "miss") in
      let hit = Service.run_one svc (req "hit") in
      let renamed = Service.run_one svc (req ~name:other "renamed") in
      Service.shutdown svc;
      let svc = Service.create ~config () in
      let disk = Service.run_one svc (req "disk") in
      Service.shutdown svc;
      List.iter
        (fun ((r : Proto.response), cached) ->
          Alcotest.(check bool) (r.Proto.id ^ " ok") true (Proto.ok r);
          Alcotest.(check bool) (r.Proto.id ^ " cached") cached r.Proto.cached)
        [ (miss, false); (hit, true); (renamed, true); (disk, true) ];
      let body = body_bytes miss in
      Alcotest.(check string) (what ^ ": memory hit = miss") body
        (body_bytes hit);
      Alcotest.(check string) (what ^ ": disk-warm hit = miss") body
        (body_bytes disk);
      let member name =
        "\"program\":" ^ Pipeline.Json.to_string (Pipeline.Json.Str name)
      in
      let renamed_body =
        match mode with
        | Proto.Run -> replace_first ~sub:(member "tri") ~by:(member other) body
        | _ -> body
      in
      Alcotest.(check string) (what ^ ": hit under another name") renamed_body
        (body_bytes renamed);
      let program = match mode with Proto.Run -> Some "tri" | _ -> None in
      Alcotest.(check (option string)) (what ^ ": miss names the requester")
        program (report_program miss);
      Alcotest.(check (option string)) (what ^ ": hit names its requester")
        (Option.map (fun _ -> other) program)
        (report_program renamed))
    [ Proto.Run; Proto.Classify ];
  rm_rf dir

(* A served report holds its own run's facts.  While another domain
   keeps moving a registered counter, a run request is computed: its
   reply must not mention that counter, since a process-wide metrics
   diff taken around the run would count the other domain's work. *)
let test_service_reply_has_no_foreign_counters () =
  let name = "test.svc.foreign_bumps" in
  let bumps = Obs.Counter.make name in
  let stop = Atomic.make false in
  let bumper =
    Domain.spawn (fun () ->
        while not (Atomic.get stop) do
          Obs.Counter.incr bumps
        done)
  in
  let svc =
    Service.create ~config:{ (quiet_config ~domains:1) with check = true } ()
  in
  let before, r, after =
    Fun.protect
      ~finally:(fun () ->
        Atomic.set stop true;
        Domain.join bumper;
        Service.shutdown svc)
      (fun () ->
        (* The bumper shares the host's CPUs with every other process, so
           it may sit out a short run: start each run right after seeing
           it bump, and serve distinct requests (no cache hit) until one
           run overlaps it. *)
        let rec serve k =
          let seen = Obs.Counter.value bumps in
          while Obs.Counter.value bumps = seen do
            Domain.cpu_relax ()
          done;
          let before = Obs.Counter.value bumps in
          let r =
            Service.run_one svc
              (Proto.request ~id:"foreign" ~name:"tri" ~mode:Proto.Run
                 ~params:[ ("n", 24 + k) ] (Proto.Src base_src))
          in
          let after = Obs.Counter.value bumps in
          if after > before || k = 49 then (before, r, after)
          else serve (k + 1)
        in
        serve 0)
  in
  Alcotest.(check bool) "run ok" true (Proto.ok r);
  Alcotest.(check bool) "the counter moved while the run was served" true
    (after > before);
  let line = Proto.response_to_line r in
  Alcotest.(check bool) "the reply does not mention the counter" false
    (contains name line);
  match Pipeline.Json.parse line with
  | Ok j -> (
      match Pipeline.Json.member "report" j with
      | Some report ->
          Alcotest.(check bool) "the report has no metrics member" true
            (Pipeline.Json.member "metrics" report = None)
      | None -> Alcotest.fail "the run reply has no report")
  | Error e -> Alcotest.fail e

let () =
  Alcotest.run "svc"
    [
      ( "key",
        [
          Alcotest.test_case "whitespace and comments" `Quick
            test_key_whitespace_comments;
          Alcotest.test_case "alpha renaming" `Quick test_key_alpha_renaming;
          Alcotest.test_case "params and strategy" `Quick
            test_key_params_and_strategy;
          Alcotest.test_case "determinism regression" `Quick
            test_key_determinism;
        ] );
      ( "cache",
        [
          Alcotest.test_case "lru eviction order" `Quick test_cache_lru_order;
          Alcotest.test_case "capacity bound" `Quick test_cache_capacity_bound;
          Alcotest.test_case "4-domain consistency" `Quick
            test_cache_concurrent;
        ] );
      ( "pool",
        [
          Alcotest.test_case "shutdown drains queue" `Quick
            test_pool_shutdown_drains;
          Alcotest.test_case "panic isolation" `Quick
            test_pool_panic_isolation;
          Alcotest.test_case "pool of 1 = sequential" `Quick
            test_pool_of_one_sequential;
          Alcotest.test_case "admitted jobs may call run" `Quick
            test_pool_admitted_jobs_run;
          Alcotest.test_case "run drains no admitted job" `Quick
            test_pool_run_skips_admissions;
          Alcotest.test_case "only admitted jobs are shed" `Quick
            test_pool_shed_counts_admissions_only;
        ] );
      ( "proto",
        [
          Alcotest.test_case "jsonl round trip" `Quick test_proto_round_trip;
          Alcotest.test_case "malformed lines" `Quick
            test_proto_malformed_lines;
          QCheck_alcotest.to_alcotest prop_request_of_line_total;
        ] );
      ( "service",
        [
          Alcotest.test_case "duplicate requests hit cache" `Quick
            test_service_duplicate_hits;
          Alcotest.test_case "error isolation" `Quick
            test_service_error_isolation;
          Alcotest.test_case "deadline" `Quick test_service_deadline;
          Alcotest.test_case "reused loop index is a bad request" `Quick
            test_service_reused_index;
          Alcotest.test_case "hit reply = miss reply" `Quick
            test_service_hit_replays_miss;
          Alcotest.test_case "a reply counts no other domain's work" `Quick
            test_service_reply_has_no_foreign_counters;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "metrics op over a batch" `Quick
            test_service_metrics_op;
          Alcotest.test_case "health op" `Quick test_service_health_op;
          Alcotest.test_case "deadline leaves a flight dump" `Quick
            test_service_deadline_flight_dump;
          Alcotest.test_case "spans carry the request trace" `Quick
            test_service_spans_carry_req;
        ] );
    ]
