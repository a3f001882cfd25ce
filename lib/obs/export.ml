(* obs sits below the pipeline layer, so both renderers write their
   output directly (the JSON form parses with Pipeline.Json.parse). *)

let sanitize name =
  String.map
    (fun c ->
      match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c | _ -> '_')
    name

let num buf f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.bprintf buf "%.1f" f
  else Printf.bprintf buf "%.9g" f

(* ---- Prometheus text format ------------------------------------------ *)

let prometheus ?(prefix = "recpart_") ?(gauges = []) ?window (m : Metrics.t) =
  let buf = Buffer.create 2048 in
  List.iter
    (fun (name, v) ->
      let n = prefix ^ sanitize name in
      Printf.bprintf buf "# TYPE %s gauge\n%s " n n;
      num buf v;
      Buffer.add_char buf '\n')
    gauges;
  List.iter
    (fun (name, v) ->
      let n = prefix ^ sanitize name in
      Printf.bprintf buf "# TYPE %s counter\n%s %d\n" n n v)
    m.Metrics.counters;
  List.iter
    (fun (name, (s : Histogram.snap)) ->
      let n = prefix ^ sanitize name in
      Printf.bprintf buf "# TYPE %s histogram\n" n;
      let cum = ref 0 in
      List.iter
        (fun (ub, c) ->
          cum := !cum + c;
          Printf.bprintf buf "%s_bucket{le=\"%d\"} %d\n" n ub !cum)
        s.Histogram.buckets;
      Printf.bprintf buf "%s_bucket{le=\"+Inf\"} %d\n" n s.Histogram.count;
      Printf.bprintf buf "%s_sum %d\n%s_count %d\n" n s.Histogram.sum n
        s.Histogram.count)
    m.Metrics.histograms;
  (match window with
  | None -> ()
  | Some w ->
      let summary = Window.summary w in
      Printf.bprintf buf "# TYPE %swindow_period_seconds gauge\n" prefix;
      Printf.bprintf buf "%swindow_period_seconds " prefix;
      num buf (Window.period_s w);
      Buffer.add_char buf '\n';
      Printf.bprintf buf "# TYPE %swindow_closed gauge\n" prefix;
      Printf.bprintf buf "%swindow_closed %d\n" prefix (Window.closed w);
      if summary <> [] then begin
        Printf.bprintf buf "# TYPE %swindow_quantile gauge\n" prefix;
        Printf.bprintf buf "# TYPE %swindow_samples gauge\n" prefix;
        List.iter
          (fun (name, (q : Window.quantiles)) ->
            let label = sanitize name in
            Printf.bprintf buf "%swindow_samples{name=\"%s\"} %d\n" prefix
              label q.Window.count;
            List.iter
              (fun (tag, v) ->
                Printf.bprintf buf "%swindow_quantile{name=\"%s\",q=\"%s\"} "
                  prefix label tag;
                num buf v;
                Buffer.add_char buf '\n')
              [
                ("0.5", q.Window.p50);
                ("0.9", q.Window.p90);
                ("0.99", q.Window.p99);
              ])
          summary
      end);
  Buffer.contents buf

(* ---- JSON snapshot --------------------------------------------------- *)

let hist_json buf (s : Histogram.snap) =
  Printf.bprintf buf "{\"count\": %d, \"sum\": %d" s.Histogram.count
    s.Histogram.sum;
  List.iter
    (fun (tag, q) ->
      Printf.bprintf buf ", \"%s\": " tag;
      num buf (Histogram.percentile s q))
    [ ("p50", 0.5); ("p90", 0.9); ("p99", 0.99) ];
  Buffer.add_string buf ", \"buckets\": [";
  List.iteri
    (fun k (ub, c) ->
      if k > 0 then Buffer.add_string buf ", ";
      Printf.bprintf buf "[%d, %d]" ub c)
    s.Histogram.buckets;
  Buffer.add_string buf "]}"

let json_string ?(gauges = []) ?window (m : Metrics.t) =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf "{";
  if gauges <> [] then begin
    Buffer.add_string buf "\"gauges\": {";
    List.iteri
      (fun k (name, v) ->
        if k > 0 then Buffer.add_string buf ", ";
        Jsonw.escape buf name;
        Buffer.add_string buf ": ";
        num buf v)
      gauges;
    Buffer.add_string buf "}, "
  end;
  Buffer.add_string buf "\"counters\": {";
  List.iteri
    (fun k (name, v) ->
      if k > 0 then Buffer.add_string buf ", ";
      Jsonw.escape buf name;
      Printf.bprintf buf ": %d" v)
    m.Metrics.counters;
  Buffer.add_string buf "}, \"histograms\": {";
  List.iteri
    (fun k (name, s) ->
      if k > 0 then Buffer.add_string buf ", ";
      Jsonw.escape buf name;
      Buffer.add_string buf ": ";
      hist_json buf s)
    m.Metrics.histograms;
  Buffer.add_string buf "}";
  (match window with
  | None -> ()
  | Some w ->
      Buffer.add_string buf ", \"windows\": {\"period_s\": ";
      num buf (Window.period_s w);
      Printf.bprintf buf ", \"max\": %d, \"closed\": %d, \"histograms\": {"
        (Window.max_windows w) (Window.closed w);
      List.iteri
        (fun k (name, (q : Window.quantiles)) ->
          if k > 0 then Buffer.add_string buf ", ";
          Jsonw.escape buf name;
          Printf.bprintf buf ": {\"count\": %d, \"sum\": %d" q.Window.count
            q.Window.sum;
          List.iter
            (fun (tag, v) ->
              Printf.bprintf buf ", \"%s\": " tag;
              num buf v)
            [
              ("p50", q.Window.p50);
              ("p90", q.Window.p90);
              ("p99", q.Window.p99);
            ];
          Buffer.add_char buf '}')
        (Window.summary w);
      Buffer.add_string buf "}}");
  Buffer.add_string buf "}";
  Buffer.contents buf
