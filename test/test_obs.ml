(* Tests for the observability layer: span nesting and ordering, counter
   atomicity under domains, histograms, metrics diffs, and the Chrome
   trace_event export round-tripping through the pipeline JSON parser. *)

module Span = Obs.Span
module Clock = Obs.Clock
module Event = Obs.Event

(* ------------------------------------------------------------------ *)
(* Clock                                                                *)

let test_clock_monotone () =
  let prev = ref (Clock.now_ns ()) in
  for _ = 1 to 10_000 do
    let t = Clock.now_ns () in
    if Int64.compare t !prev < 0 then
      Alcotest.fail "now_ns went backwards";
    prev := t
  done;
  let t0 = Clock.now_ns () in
  Alcotest.(check bool) "elapsed non-negative" true (Clock.elapsed_s t0 >= 0.0)

(* ------------------------------------------------------------------ *)
(* Spans                                                                *)

let test_span_nesting () =
  let log = Event.make () in
  let r =
    Span.with_ ~log ~name:"outer" (fun () ->
        Span.with_ ~log ~name:"inner1" (fun () -> ignore (Sys.opaque_identity 1));
        Span.with_ ~log ~name:"inner2" ~args:[ ("k", "v") ] (fun () -> ());
        17)
  in
  Alcotest.(check int) "with_ returns f's value" 17 r;
  match Event.spans log with
  | [ outer; inner1; inner2 ] ->
      Alcotest.(check string) "outer first" "outer" outer.Event.name;
      Alcotest.(check string) "inner1 second" "inner1" inner1.Event.name;
      Alcotest.(check string) "inner2 third" "inner2" inner2.Event.name;
      Alcotest.(check int) "outer depth" 0 outer.Event.depth;
      Alcotest.(check int) "inner depth" 1 inner1.Event.depth;
      Alcotest.(check int) "inner2 depth" 1 inner2.Event.depth;
      Alcotest.(check bool) "args kept" true
        (inner2.Event.fields = [ ("k", Event.Str "v") ]);
      List.iter
        (fun (s : Event.event) ->
          Alcotest.(check bool)
            (s.Event.name ^ " duration >= 0")
            true
            (Int64.compare s.Event.dur_ns 0L >= 0))
        [ outer; inner1; inner2 ];
      (* children start after the parent and end before it *)
      let ends (s : Event.event) = Int64.add s.Event.t_ns s.Event.dur_ns in
      Alcotest.(check bool) "inner1 starts inside outer" true
        (Int64.compare inner1.Event.t_ns outer.Event.t_ns >= 0);
      Alcotest.(check bool) "inner2 after inner1" true
        (Int64.compare inner2.Event.t_ns (ends inner1) >= 0);
      Alcotest.(check bool) "inner2 ends inside outer" true
        (Int64.compare (ends inner2) (ends outer) <= 0)
  | spans ->
      Alcotest.failf "expected 3 spans, got %d" (List.length spans)

let test_span_on_exception () =
  let log = Event.make () in
  (try Span.with_ ~log ~name:"boom" (fun () -> failwith "x")
   with Failure _ -> ());
  match Event.spans log with
  | [ s ] -> Alcotest.(check string) "recorded despite raise" "boom" s.Event.name
  | l -> Alcotest.failf "expected 1 span, got %d" (List.length l)

let test_span_null_sink () =
  Span.with_ ~log:Event.null ~name:"dropped" (fun () -> ());
  Alcotest.(check int) "null sink records nothing" 0
    (List.length (Event.spans Event.null))

let test_ambient_sink () =
  let log = Event.make () in
  Event.with_ambient log (fun () -> Span.with_ ~name:"ambient" (fun () -> ()));
  (* After with_ambient the default is restored: this span is dropped. *)
  Span.with_ ~name:"after" (fun () -> ());
  match Event.spans log with
  | [ s ] -> Alcotest.(check string) "ambient recorded" "ambient" s.Event.name
  | l -> Alcotest.failf "expected 1 span, got %d" (List.length l)

let test_spans_across_domains () =
  let log = Event.make () in
  let work tag () =
    Span.with_ ~log ~name:("worker-" ^ tag) (fun () ->
        Span.with_ ~log ~name:"step" (fun () -> ignore (Sys.opaque_identity tag)))
  in
  let ds = List.init 3 (fun k -> Domain.spawn (work (string_of_int k))) in
  List.iter Domain.join ds;
  let spans = Event.spans log in
  Alcotest.(check int) "2 spans per domain" 6 (List.length spans);
  let tids =
    List.sort_uniq compare (List.map (fun s -> s.Event.tid) spans)
  in
  Alcotest.(check int) "3 distinct domain ids" 3 (List.length tids);
  (* each domain has its own independent depth counter *)
  List.iter
    (fun (s : Event.event) ->
      let expect =
        if String.length s.Event.name >= 6 && String.sub s.Event.name 0 6 = "worker"
        then 0
        else 1
      in
      Alcotest.(check int) (s.Event.name ^ " depth") expect s.Event.depth)
    spans

(* The idle path: with no log attached and the flight recorder off, a
   span site or an event site (Info or Debug) costs one branch and
   allocates nothing. *)
let test_idle_sites_allocate_nothing () =
  Obs.Flight.disable ();
  Alcotest.(check bool) "no log attached" false
    (Event.enabled (Event.ambient ()));
  let n = 10_000 in
  let body () = () in
  let fields () = [ ("k", Event.Int 1) ] in
  let minor_words f =
    let w0 = Gc.minor_words () in
    f ();
    Gc.minor_words () -. w0
  in
  let baseline = minor_words (fun () -> ()) in
  let check what f =
    Alcotest.(check (float 0.0))
      (what ^ " allocates nothing")
      baseline (minor_words f)
  in
  check "Span.with_" (fun () ->
      for _ = 1 to n do
        Span.with_ ~name:"idle" body
      done);
  check "Info Event.emit" (fun () ->
      for _ = 1 to n do
        Event.emit ~scope:"idle" ~name:"info" fields
      done);
  check "Debug Event.emit" (fun () ->
      for _ = 1 to n do
        Event.emit ~severity:Event.Debug ~scope:"idle" ~name:"debug" fields
      done)

(* ------------------------------------------------------------------ *)
(* Counters and histograms                                              *)

let test_counter_atomic_4_domains () =
  let c = Obs.Counter.make "test.atomicity" in
  let before = Obs.Counter.value c in
  let per_domain = 100_000 in
  let ds =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to per_domain do
              Obs.Counter.incr c
            done))
  in
  List.iter Domain.join ds;
  Alcotest.(check int) "no lost increments" (4 * per_domain)
    (Obs.Counter.value c - before);
  Alcotest.(check bool) "make is idempotent by name" true
    (Obs.Counter.value (Obs.Counter.make "test.atomicity")
    = Obs.Counter.value c)

let test_histogram_buckets () =
  let h = Obs.Histogram.make "test.hist_buckets" in
  List.iter (Obs.Histogram.observe h) [ 0; 1; 2; 3; 4; 5; 1000 ];
  let s = Obs.Histogram.snap h in
  Alcotest.(check int) "count" 7 s.Obs.Histogram.count;
  Alcotest.(check int) "sum" 1015 s.Obs.Histogram.sum;
  (* 0,1 → le 1; 2 → le 2; 3,4 → le 4; 5 → le 8; 1000 → le 1024 *)
  Alcotest.(check (list (pair int int)))
    "power-of-two buckets"
    [ (1, 2); (2, 1); (4, 2); (8, 1); (1024, 1) ]
    s.Obs.Histogram.buckets

let test_histogram_negative_clamp () =
  (* Negative samples are clamped to 0 before anything records, so count,
     sum and the buckets stay mutually consistent. *)
  let h = Obs.Histogram.make "test.hist_negative" in
  List.iter (Obs.Histogram.observe h) [ -5; -1; 0; 3 ];
  let s = Obs.Histogram.snap h in
  Alcotest.(check int) "count includes clamped samples" 4
    s.Obs.Histogram.count;
  Alcotest.(check int) "sum treats negatives as 0" 3 s.Obs.Histogram.sum;
  (* -5, -1, 0 all land in the le-1 bucket; 3 in le-4 *)
  Alcotest.(check (list (pair int int)))
    "buckets agree with count"
    [ (1, 3); (4, 1) ]
    s.Obs.Histogram.buckets;
  Alcotest.(check int) "bucket total = count" s.Obs.Histogram.count
    (List.fold_left (fun acc (_, n) -> acc + n) 0 s.Obs.Histogram.buckets)

let test_histogram_snap_stress_4_domains () =
  (* snap under concurrent observation: the count is the bucket total,
     so Σ bucket counts <= count holds on every mid-flight snapshot, and
     the totals are exact once the writers join. *)
  let h = Obs.Histogram.make "test.hist_snap_stress" in
  let per_domain = 50_000 in
  let done_count = Atomic.make 0 in
  let ds =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            for i = 1 to per_domain do
              Obs.Histogram.observe h (i land 1023)
            done;
            Atomic.incr done_count))
  in
  let last_count = ref 0 in
  while Atomic.get done_count < 4 do
    let s = Obs.Histogram.snap h in
    let bucket_total =
      List.fold_left (fun acc (_, n) -> acc + n) 0 s.Obs.Histogram.buckets
    in
    if bucket_total > s.Obs.Histogram.count then
      Alcotest.failf "torn snap: bucket total %d > count %d" bucket_total
        s.Obs.Histogram.count;
    if s.Obs.Histogram.count < !last_count then
      Alcotest.failf "count went backwards: %d after %d"
        s.Obs.Histogram.count !last_count;
    last_count := s.Obs.Histogram.count
  done;
  List.iter Domain.join ds;
  let s = Obs.Histogram.snap h in
  Alcotest.(check int) "final count" (4 * per_domain) s.Obs.Histogram.count;
  let expected_sum =
    let one = ref 0 in
    for i = 1 to per_domain do
      one := !one + (i land 1023)
    done;
    4 * !one
  in
  Alcotest.(check int) "final sum" expected_sum s.Obs.Histogram.sum;
  Alcotest.(check int) "final bucket total" (4 * per_domain)
    (List.fold_left (fun acc (_, n) -> acc + n) 0 s.Obs.Histogram.buckets)

let test_metrics_diff () =
  let c = Obs.Counter.make "test.diffed" in
  let h = Obs.Histogram.make "test.diffed_hist" in
  let before = Obs.Metrics.snapshot () in
  Obs.Counter.add c 5;
  Obs.Histogram.observe h 3;
  let d = Obs.Metrics.diff ~before ~after:(Obs.Metrics.snapshot ()) in
  Alcotest.(check (option int)) "counter delta" (Some 5)
    (List.assoc_opt "test.diffed" d.Obs.Metrics.counters);
  Alcotest.(check bool) "untouched counters dropped" true
    (List.assoc_opt "test.atomicity" d.Obs.Metrics.counters = None);
  (match List.assoc_opt "test.diffed_hist" d.Obs.Metrics.histograms with
  | Some hs ->
      Alcotest.(check int) "hist delta count" 1 hs.Obs.Histogram.count;
      Alcotest.(check int) "hist delta sum" 3 hs.Obs.Histogram.sum
  | None -> Alcotest.fail "histogram delta missing");
  let empty = Obs.Metrics.diff ~before:d ~after:d in
  Alcotest.(check bool) "self-diff is empty" true (Obs.Metrics.is_empty empty)

(* [Metrics.diff] as it was, one [List.assoc_opt] per name: the merge
   pass must give the same output on every pair of sorted snapshots. *)
let reference_diff ~(before : Obs.Metrics.t) ~(after : Obs.Metrics.t) :
    Obs.Metrics.t =
  let counters =
    List.filter_map
      (fun (name, v) ->
        let v0 =
          Option.value ~default:0
            (List.assoc_opt name before.Obs.Metrics.counters)
        in
        if v - v0 = 0 then None else Some (name, v - v0))
      after.Obs.Metrics.counters
  in
  let hist_diff (a : Obs.Histogram.snap) (b : Obs.Histogram.snap) :
      Obs.Histogram.snap =
    let bucket (ub, n) =
      let n0 = Option.value ~default:0 (List.assoc_opt ub b.buckets) in
      if n - n0 = 0 then None else Some (ub, n - n0)
    in
    {
      Obs.Histogram.count = a.Obs.Histogram.count - b.Obs.Histogram.count;
      sum = a.Obs.Histogram.sum - b.Obs.Histogram.sum;
      buckets = List.filter_map bucket a.Obs.Histogram.buckets;
    }
  in
  let histograms =
    List.filter_map
      (fun (name, h) ->
        let d =
          match List.assoc_opt name before.Obs.Metrics.histograms with
          | Some h0 -> hist_diff h h0
          | None -> h
        in
        if d.Obs.Histogram.count = 0 then None else Some (name, d))
      after.Obs.Metrics.histograms
  in
  { Obs.Metrics.counters; histograms }

(* Random snapshot pairs: names drawn from a small pool so that some sit
   on one side only, values from a small range so that some deltas are
   zero, histogram buckets likewise. *)
let gen_snapshot =
  let open QCheck2.Gen in
  (* A sorted sub-list of [keys], each kept key with a value of [g]. *)
  let sublist keys g =
    map (List.filter_map Fun.id)
      (flatten_l (List.map (fun k -> opt (map (fun v -> (k, v)) g)) keys))
  in
  let names = [ "a.x"; "a.y"; "b"; "b.z"; "c"; "d.q"; "e" ] in
  let snap =
    map3
      (fun count sum buckets -> { Obs.Histogram.count; sum; buckets })
      (int_range 0 4) (int_range 0 20)
      (sublist [ 1; 2; 4; 8; 16; 32 ] (int_range 0 3))
  in
  map2
    (fun counters histograms -> { Obs.Metrics.counters; histograms })
    (sublist names (int_range 0 3))
    (sublist names snap)

let prop_metrics_diff_matches_reference =
  QCheck2.Test.make ~name:"diff = reference on random snapshot pairs"
    ~count:500 (QCheck2.Gen.pair gen_snapshot gen_snapshot)
    (fun (before, after) ->
      Obs.Metrics.diff ~before ~after = reference_diff ~before ~after)

(* Exact per-domain word counts: a 1,000-cons list is 3,000 minor words,
   a 10,000-element array 10,001 major words (allocated directly in the
   major heap).  [Gc.quick_stat] read 0 for both on OCaml 5.1.1. *)
let test_gcstats_exact () =
  let within what want got =
    if Float.abs (got -. want) > 64.0 then
      Alcotest.failf "%s: %.0f words, want %.0f (within 64)" what got want
  in
  let p = Obs.Gcstats.start () in
  let l = ref [] in
  for i = 1 to 1000 do
    l := i :: !l
  done;
  let d = Obs.Gcstats.since p in
  ignore (Sys.opaque_identity !l);
  within "list: minor words" 3000.0 d.Obs.Gcstats.minor_words;
  let p = Obs.Gcstats.start () in
  let a = Sys.opaque_identity (Array.make 10_000 0) in
  let d = Obs.Gcstats.since p in
  ignore (Sys.opaque_identity a);
  within "array: major words" 10_001.0 d.Obs.Gcstats.major_words;
  within "array: allocated words" 10_001.0 (Obs.Gcstats.allocated_words d);
  (* The O(1) reading the executor takes per drain counts the same. *)
  let m = Obs.Gcstats.mark () in
  let l = List.init 1000 Fun.id in
  let w = Obs.Gcstats.words_since m in
  ignore (Sys.opaque_identity l);
  within "list: words_since" 3000.0 w

(* ------------------------------------------------------------------ *)
(* Decision events                                                      *)

let test_event_emit_and_order () =
  let log = Event.make () in
  Event.emit ~log ~scope:"depend" ~name:"test.gcd" (fun () ->
      [ ("verdict", Event.Str "independent"); ("gcd", Event.Int 3) ]);
  Event.emit ~log ~severity:Event.Warn ~scope:"strategy" ~name:"rec.reject"
    (fun () -> [ ("why", Event.Str "not full-rank") ]);
  Event.emit ~log ~scope:"partition" ~name:"cardinality" (fun () ->
      [ ("growth", Event.Float 3.0); ("bounded", Event.Bool true) ]);
  match Event.events log with
  | [ a; b; c ] ->
      Alcotest.(check (list int)) "gap-free seq from 0" [ 0; 1; 2 ]
        [ a.Event.seq; b.Event.seq; c.Event.seq ];
      Alcotest.(check (list string))
        "emission order" [ "test.gcd"; "rec.reject"; "cardinality" ]
        [ a.Event.name; b.Event.name; c.Event.name ];
      Alcotest.(check string) "scope kept" "strategy" b.Event.scope;
      Alcotest.(check string) "severity kept" "warn"
        (Event.severity_name b.Event.severity);
      Alcotest.(check bool) "typed fields kept" true
        (a.Event.fields
        = [ ("verdict", Event.Str "independent"); ("gcd", Event.Int 3) ]);
      Event.clear log;
      Alcotest.(check int) "clear empties" 0 (List.length (Event.events log))
  | l -> Alcotest.failf "expected 3 events, got %d" (List.length l)

let test_event_null_does_not_force_thunk () =
  let forced = ref false in
  Event.emit ~log:Event.null ~scope:"s" ~name:"n" (fun () ->
      forced := true;
      []);
  Alcotest.(check bool) "thunk not forced on null log" false !forced;
  Alcotest.(check bool) "null log disabled" false (Event.enabled Event.null);
  Alcotest.(check int) "null log records nothing" 0
    (List.length (Event.events Event.null))

let test_event_ambient_scoping () =
  let log = Event.make () in
  Event.with_ambient log (fun () ->
      Event.emit ~scope:"s" ~name:"inside" (fun () -> []));
  (* the previous ambient (null) is restored: this one is dropped *)
  Event.emit ~scope:"s" ~name:"outside" (fun () -> []);
  match Event.events log with
  | [ e ] -> Alcotest.(check string) "ambient recorded" "inside" e.Event.name
  | l -> Alcotest.failf "expected 1 event, got %d" (List.length l)

let test_event_multi_domain_seq () =
  let log = Event.make () in
  let per_domain = 1_000 in
  let ds =
    List.init 4 (fun k ->
        Domain.spawn (fun () ->
            for i = 1 to per_domain do
              Event.emit ~log ~scope:"stress" ~name:"tick" (fun () ->
                  [ ("d", Event.Int k); ("i", Event.Int i) ])
            done))
  in
  List.iter Domain.join ds;
  let evs = Event.events log in
  Alcotest.(check int) "all events kept" (4 * per_domain) (List.length evs);
  List.iteri
    (fun i (e : Event.event) ->
      if e.Event.seq <> i then
        Alcotest.failf "seq not gap-free: position %d has seq %d" i e.Event.seq)
    evs;
  let tids =
    List.sort_uniq compare (List.map (fun (e : Event.event) -> e.Event.tid) evs)
  in
  Alcotest.(check int) "4 distinct emitting domains" 4 (List.length tids)

let test_event_jsonl_parses () =
  let log = Event.make () in
  Event.emit ~log ~scope:"depend" ~name:"test.exact" (fun () ->
      [
        ("relation", Event.Str "needs \"quotes\"\nand newlines");
        ("empty", Event.Bool false);
        ("dims", Event.Int 2);
        ("growth", Event.Float 1.5);
        ("nan_degrades", Event.Float nan);
      ]);
  Event.emit ~log ~severity:Event.Warn ~scope:"strategy" ~name:"rec.reject"
    (fun () -> []);
  let lines =
    String.split_on_char '\n' (Event.to_jsonl log)
    |> List.filter (fun l -> l <> "")
  in
  Alcotest.(check int) "one line per event" 2 (List.length lines);
  let parsed =
    List.map
      (fun line ->
        match Pipeline.Json.parse line with
        | Ok v -> v
        | Error m -> Alcotest.failf "JSONL line does not parse: %s (%s)" line m)
      lines
  in
  let first = List.nth parsed 0 in
  List.iter
    (fun key ->
      if Pipeline.Json.member key first = None then
        Alcotest.failf "line lacks %s" key)
    [ "seq"; "t_us"; "tid"; "severity"; "scope"; "name"; "fields" ];
  (match Pipeline.Json.member "fields" first with
  | Some fields ->
      Alcotest.(check bool) "escaped string survives" true
        (Pipeline.Json.member "relation" fields
        = Some (Pipeline.Json.Str "needs \"quotes\"\nand newlines"));
      Alcotest.(check bool) "int field survives" true
        (Pipeline.Json.member "dims" fields = Some (Pipeline.Json.Int 2));
      Alcotest.(check bool) "non-finite float degrades to null" true
        (Pipeline.Json.member "nan_degrades" fields = Some Pipeline.Json.Null)
  | None -> Alcotest.fail "fields missing");
  match Pipeline.Json.member "severity" (List.nth parsed 1) with
  | Some (Pipeline.Json.Str s) -> Alcotest.(check string) "severity" "warn" s
  | _ -> Alcotest.fail "severity missing on second line"

(* A dropped log's records are garbage: no domain keeps a reference to
   the log's cells. *)
let[@inline never] record_into_dropped_log w =
  let log = Event.make () in
  Event.emit ~log ~scope:"s" ~name:"n" (fun () ->
      let payload = Event.Str (String.make 8 'x') in
      Weak.set w 0 (Some payload);
      [ ("p", payload) ]);
  Alcotest.(check int) "recorded" 1 (List.length (Event.events log))

let test_event_dropped_log_collected () =
  let w = Weak.create 1 in
  record_into_dropped_log w;
  Gc.full_major ();
  Alcotest.(check bool) "record collected with its log" false (Weak.check w 0)

(* ------------------------------------------------------------------ *)
(* Chrome trace export                                                  *)

let record_sample_trace () =
  let log = Event.make () in
  Span.with_ ~log ~name:"run" (fun () ->
      Span.with_ ~log ~name:"phase:P1" ~args:[ ("n", "3") ] (fun () ->
          let ds =
            List.init 2 (fun k ->
                Domain.spawn (fun () ->
                    Span.with_ ~log ~name:"bucket" (fun () ->
                        ignore (Sys.opaque_identity k))))
          in
          List.iter Domain.join ds);
      Span.with_ ~log ~name:"phase:\"quoted\"\n" (fun () -> ()));
  log

let test_chrome_trace_round_trip () =
  let log = record_sample_trace () in
  let c = Obs.Counter.make "test.trace_counter" in
  Obs.Counter.incr c;
  let metrics =
    { Obs.Metrics.counters = [ ("test.trace_counter", 1) ]; histograms = [] }
  in
  let json = Obs.Trace.to_chrome_json ~metrics log in
  match Pipeline.Json.parse json with
  | Error m -> Alcotest.fail ("trace JSON does not parse: " ^ m)
  | Ok t -> (
      match Pipeline.Json.member "traceEvents" t with
      | Some (Pipeline.Json.List events) ->
          let num = function
            | Pipeline.Json.Int i -> float_of_int i
            | Pipeline.Json.Float f -> f
            | _ -> Alcotest.fail "expected a number"
          in
          let xs =
            List.filter
              (fun e ->
                Pipeline.Json.member "ph" e = Some (Pipeline.Json.Str "X"))
              events
          in
          (* run, phase:P1, 2 buckets, the quoted phase *)
          Alcotest.(check int) "complete events" 5 (List.length xs);
          List.iter
            (fun e ->
              let get k =
                match Pipeline.Json.member k e with
                | Some v -> num v
                | None -> Alcotest.failf "event lacks %s" k
              in
              Alcotest.(check bool) "ts >= 0" true (get "ts" >= 0.0);
              Alcotest.(check bool) "dur >= 0" true (get "dur" >= 0.0))
            xs;
          let names =
            List.filter_map
              (fun e ->
                match Pipeline.Json.member "name" e with
                | Some (Pipeline.Json.Str s) -> Some s
                | _ -> None)
              xs
          in
          Alcotest.(check bool) "escaped name survives" true
            (List.mem "phase:\"quoted\"\n" names);
          let counters =
            List.filter
              (fun e ->
                Pipeline.Json.member "ph" e = Some (Pipeline.Json.Str "C"))
              events
          in
          Alcotest.(check int) "counter events" 1 (List.length counters)
      | _ -> Alcotest.fail "traceEvents missing")

let test_trace_text () =
  let log = record_sample_trace () in
  let text = Obs.Trace.to_text log in
  List.iter
    (fun needle ->
      let found =
        let nl = String.length needle and tl = String.length text in
        let rec go i = i + nl <= tl && (String.sub text i nl = needle || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) ("text mentions " ^ needle) true found)
    [ "domain 0"; "run"; "phase:P1"; "bucket" ]

let test_chrome_trace_from_pipeline_run () =
  (* Export a trace from a real 4-domain pipeline run and check the
     properties a trace viewer relies on: at least one tid and, per tid,
     well-nested complete events.  The executor pool load-balances
     dynamically (the caller helps drain the bucket queue), so on a tiny
     nest fewer than [threads] domains may end up executing buckets. *)
  let log = Event.make () in
  let options = { Pipeline.Driver.default_options with threads = 4 } in
  (match
     Event.with_ambient log (fun () ->
         Pipeline.Driver.run ~options ~name:"example2" ~params:[ ("n", 12) ]
           Loopir.Builtin.example2)
   with
  | Error e -> Alcotest.fail (Pipeline.Driver.error_to_string e)
  | Ok _ -> ());
  let json = Obs.Trace.to_chrome_json log in
  match Pipeline.Json.parse json with
  | Error m -> Alcotest.fail ("trace JSON does not parse: " ^ m)
  | Ok t -> (
      match Pipeline.Json.member "traceEvents" t with
      | Some (Pipeline.Json.List events) ->
          let num = function
            | Some (Pipeline.Json.Int i) -> float_of_int i
            | Some (Pipeline.Json.Float f) -> f
            | _ -> Alcotest.fail "expected a number"
          in
          let xs =
            List.filter_map
              (fun e ->
                if Pipeline.Json.member "ph" e = Some (Pipeline.Json.Str "X")
                then
                  Some
                    ( num (Pipeline.Json.member "tid" e),
                      num (Pipeline.Json.member "ts" e),
                      num (Pipeline.Json.member "dur" e) )
                else None)
              events
          in
          Alcotest.(check bool) "pipeline run produced events" true
            (List.length xs > 10);
          let tids =
            List.sort_uniq compare (List.map (fun (tid, _, _) -> tid) xs)
          in
          Alcotest.(check bool) "at least one executing tid" true
            (List.length tids >= 1);
          (* well-nested per tid: sorted by start (longest first on ties),
             every event fits inside whatever is still open *)
          let eps = 0.01 (* µs: ns → µs conversion rounding *) in
          List.iter
            (fun tid ->
              let mine =
                List.filter (fun (t, _, _) -> t = tid) xs
                |> List.map (fun (_, ts, dur) -> (ts, dur))
                |> List.sort (fun (a, da) (b, db) ->
                       if a <> b then compare a b else compare db da)
              in
              let stack = ref [] in
              List.iter
                (fun (ts, dur) ->
                  let rec pop () =
                    match !stack with
                    | top :: rest when top <= ts +. eps ->
                        stack := rest;
                        pop ()
                    | _ -> ()
                  in
                  pop ();
                  (match !stack with
                  | top :: _ when ts +. dur > top +. eps ->
                      Alcotest.failf
                        "tid %g: event [%g, %g] overlaps an open event ending \
                         at %g"
                        tid ts (ts +. dur) top
                  | _ -> ());
                  stack := (ts +. dur) :: !stack)
                mine)
            tids
      | _ -> Alcotest.fail "traceEvents missing")

(* ------------------------------------------------------------------ *)
(* Critpath: critical path and straggler attribution on hand-built
   timelines                                                           *)

let mkspan ?(args = []) ?(tid = 0) ~name ~start ~dur () =
  {
    Event.scope = "";
    name;
    severity = Event.Info;
    fields = List.map (fun (k, v) -> (k, Event.Str v)) args;
    tid;
    t_ns = Int64.of_int start;
    seq = -1;
    dur_ns = Int64.of_int dur;
    depth = 0;
    span = true;
  }

let mktask ~phase ~chain ~len ~tid ~start ~dur =
  mkspan ~name:"task"
    ~args:
      [
        ("phase", phase);
        ("chain", string_of_int chain);
        ("len", string_of_int len);
      ]
    ~tid ~start ~dur ()

let test_critpath_balanced () =
  let spans =
    mkspan ~name:"phase:P2-chains" ~start:0 ~dur:100 ()
    :: List.init 4 (fun i ->
           mktask ~phase:"P2-chains" ~chain:i ~len:5 ~tid:i ~start:0 ~dur:100)
  in
  let cp = Obs.Critpath.of_spans ~threads:4 spans in
  Alcotest.(check int) "one barrier" 1 (List.length cp.Obs.Critpath.barriers);
  let b = List.hd cp.Obs.Critpath.barriers in
  Alcotest.(check int) "all tasks attributed" 4 b.Obs.Critpath.n_tasks;
  Alcotest.(check int) "all domains seen" 4 b.Obs.Critpath.n_domains;
  Alcotest.(check (float 1e-9)) "balanced: no idle" 0.0
    b.Obs.Critpath.idle_fraction;
  Alcotest.(check bool) "a straggler is named" true
    (b.Obs.Critpath.straggler <> None);
  Alcotest.(check (float 1e-9)) "wall is all critical" 1.0
    cp.Obs.Critpath.critical_fraction;
  Alcotest.(check (option int)) "longest chain" (Some 5)
    cp.Obs.Critpath.longest_chain

let test_critpath_straggler () =
  let spans =
    mkspan ~name:"phase:P2-chains" ~start:0 ~dur:100 ()
    :: mktask ~phase:"P2-chains" ~chain:0 ~len:20 ~tid:0 ~start:0 ~dur:100
    :: List.init 3 (fun i ->
           mktask ~phase:"P2-chains" ~chain:(i + 1) ~len:2 ~tid:(i + 1)
             ~start:0 ~dur:10)
  in
  let cp = Obs.Critpath.of_spans ~threads:4 spans in
  let b = List.hd cp.Obs.Critpath.barriers in
  (match b.Obs.Critpath.straggler with
  | None -> Alcotest.fail "no straggler named"
  | Some s ->
      Alcotest.(check int) "the long chain is the straggler" 0
        s.Obs.Critpath.id;
      Alcotest.(check int) "with its length" 20 s.Obs.Critpath.len);
  (* busy = 100 + 3·10 of 4·100 capacity *)
  Alcotest.(check (float 1e-9)) "idle fraction" 0.675
    b.Obs.Critpath.idle_fraction;
  Alcotest.(check int) "longest_len" 20 b.Obs.Critpath.longest_len;
  let txt =
    Obs.Critpath.to_text ~theorem_bound:10 cp
  in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "text names chain 0" true (contains txt "chain 0");
  Alcotest.(check bool) "bound exceeded is called out" true
    (contains txt "EXCEEDS")

let test_critpath_zero_duration () =
  let spans =
    [
      mkspan ~name:"phase:P1" ~start:50 ~dur:0 ();
      mktask ~phase:"P1" ~chain:0 ~len:1 ~tid:0 ~start:50 ~dur:0;
    ]
  in
  let cp = Obs.Critpath.of_spans ~threads:4 spans in
  let b = List.hd cp.Obs.Critpath.barriers in
  Alcotest.(check (float 0.0)) "idle fraction is 0, not nan" 0.0
    b.Obs.Critpath.idle_fraction;
  Alcotest.(check (float 0.0)) "critical fraction is 0, not nan" 0.0
    cp.Obs.Critpath.critical_fraction;
  Alcotest.(check int) "task still attributed" 1 b.Obs.Critpath.n_tasks

let test_critpath_chain_ratio_counter () =
  let counter_value () =
    Option.value ~default:0
      (List.assoc_opt "runtime.sched.longest_chain_ratio_pct"
         (Obs.Counter.snapshot ()))
  in
  let before = counter_value () in
  Obs.Critpath.observe_chain_ratio ~measured:3 ~bound:5;
  Alcotest.(check int) "ratio ticked as a percentage" (before + 60)
    (counter_value ());
  (* Degenerate inputs must not tick (or divide by zero). *)
  Obs.Critpath.observe_chain_ratio ~measured:0 ~bound:5;
  Obs.Critpath.observe_chain_ratio ~measured:3 ~bound:0;
  Alcotest.(check int) "degenerate inputs ignored" (before + 60)
    (counter_value ());
  (* of_spans with a theorem bound ticks it from the measured chain. *)
  let spans =
    [
      mkspan ~name:"phase:P2-chains" ~start:0 ~dur:100 ();
      mktask ~phase:"P2-chains" ~chain:0 ~len:4 ~tid:0 ~start:0 ~dur:100;
    ]
  in
  ignore (Obs.Critpath.of_spans ~threads:2 ~theorem_bound:4 spans);
  Alcotest.(check int) "of_spans ticks measured/bound" (before + 160)
    (counter_value ())

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "obs"
    [
      ( "clock",
        [ Alcotest.test_case "monotone" `Quick test_clock_monotone ] );
      ( "spans",
        [
          Alcotest.test_case "nesting and ordering" `Quick test_span_nesting;
          Alcotest.test_case "recorded on exception" `Quick
            test_span_on_exception;
          Alcotest.test_case "null sink drops" `Quick test_span_null_sink;
          Alcotest.test_case "ambient sink" `Quick test_ambient_sink;
          Alcotest.test_case "independent domain timelines" `Quick
            test_spans_across_domains;
          Alcotest.test_case "idle sites allocate nothing" `Quick
            test_idle_sites_allocate_nothing;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counter atomicity on 4 domains" `Quick
            test_counter_atomic_4_domains;
          Alcotest.test_case "histogram buckets" `Quick test_histogram_buckets;
          Alcotest.test_case "histogram clamps negatives" `Quick
            test_histogram_negative_clamp;
          Alcotest.test_case "histogram snap under 4-domain load" `Quick
            test_histogram_snap_stress_4_domains;
          Alcotest.test_case "snapshot diff" `Quick test_metrics_diff;
          QCheck_alcotest.to_alcotest prop_metrics_diff_matches_reference;
          Alcotest.test_case "exact allocation counters" `Quick
            test_gcstats_exact;
        ] );
      ( "events",
        [
          Alcotest.test_case "emit and order" `Quick test_event_emit_and_order;
          Alcotest.test_case "null log skips the thunk" `Quick
            test_event_null_does_not_force_thunk;
          Alcotest.test_case "ambient scoping" `Quick
            test_event_ambient_scoping;
          Alcotest.test_case "gap-free seq across 4 domains" `Quick
            test_event_multi_domain_seq;
          Alcotest.test_case "JSONL lines parse" `Quick
            test_event_jsonl_parses;
          Alcotest.test_case "dropped log is collected" `Quick
            test_event_dropped_log_collected;
        ] );
      ( "trace",
        [
          Alcotest.test_case "chrome JSON round-trip" `Quick
            test_chrome_trace_round_trip;
          Alcotest.test_case "chrome export of a 4-domain pipeline run"
            `Quick test_chrome_trace_from_pipeline_run;
          Alcotest.test_case "text tree" `Quick test_trace_text;
        ] );
      ( "critpath",
        [
          Alcotest.test_case "balanced timeline" `Quick
            test_critpath_balanced;
          Alcotest.test_case "one straggler" `Quick test_critpath_straggler;
          Alcotest.test_case "zero-duration phase" `Quick
            test_critpath_zero_duration;
          Alcotest.test_case "chain-ratio counter" `Quick
            test_critpath_chain_ratio_counter;
        ] );
    ]
