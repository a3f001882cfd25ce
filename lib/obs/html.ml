(* One self-contained page, inline CSS, no scripts: the report must
   survive being shipped as a bare CI artifact. *)

let escape buf s =
  String.iter
    (fun c ->
      match c with
      | '&' -> Buffer.add_string buf "&amp;"
      | '<' -> Buffer.add_string buf "&lt;"
      | '>' -> Buffer.add_string buf "&gt;"
      | '"' -> Buffer.add_string buf "&quot;"
      | c -> Buffer.add_char buf c)
    s

let esc s =
  let buf = Buffer.create (String.length s + 8) in
  escape buf s;
  Buffer.contents buf

let fmt_ns ns =
  let f = Int64.to_float ns in
  if f >= 1e9 then Printf.sprintf "%.3f s" (f /. 1e9)
  else if f >= 1e6 then Printf.sprintf "%.3f ms" (f /. 1e6)
  else if f >= 1e3 then Printf.sprintf "%.3f us" (f /. 1e3)
  else Printf.sprintf "%.0f ns" f

(* Stable hue per span name so the same stage keeps its colour across
   waterfall, timeline and tree. *)
let hue name =
  let h = Hashtbl.hash name in
  h mod 360

let span_style name = Printf.sprintf "background:hsl(%d,65%%,78%%)" (hue name)

let origin spans =
  List.fold_left
    (fun acc (s : Event.event) ->
      match acc with
      | None -> Some s.Event.t_ns
      | Some t -> Some (min t s.Event.t_ns))
    None spans
  |> Option.value ~default:0L

let horizon spans t0 =
  List.fold_left
    (fun acc (s : Event.event) ->
      max acc (Int64.sub (Int64.add s.Event.t_ns s.Event.dur_ns) t0))
    1L spans

let pct part whole = 100.0 *. Int64.to_float part /. Int64.to_float whole

let css =
  {|body{font:14px/1.45 system-ui,sans-serif;margin:1.5em auto;max-width:70em;
  padding:0 1em;color:#222}
h1{font-size:1.4em}h2{font-size:1.1em;margin-top:1.6em;border-bottom:1px solid #ddd;
  padding-bottom:.2em}
table{border-collapse:collapse;margin:.5em 0}
td,th{border:1px solid #ddd;padding:.25em .6em;text-align:left}
th{background:#f5f5f5}td.num{text-align:right;font-variant-numeric:tabular-nums}
.meta span{margin-right:1.5em;color:#555}
.lane{position:relative;background:#fafafa;border:1px solid #eee;margin:2px 0}
.lane .bar{position:absolute;height:16px;border:1px solid rgba(0,0,0,.25);
  border-radius:2px;overflow:hidden;white-space:nowrap;font-size:11px;
  padding:0 2px;box-sizing:border-box}
.wf{position:relative;height:22px;margin:2px 0}
.wf .bar{position:absolute;height:18px;border:1px solid rgba(0,0,0,.25);
  border-radius:2px}
.wf .lbl{position:absolute;left:0;font-size:12px;line-height:20px}
.dom{color:#555;font-size:12px;margin-top:.6em}
details{margin-left:1.2em}summary{cursor:pointer}
summary .dur{color:#777;font-variant-numeric:tabular-nums}
summary .args{color:#999;font-size:12px}
|}

(* ---- stage waterfall -------------------------------------------------- *)

let waterfall buf spans t0 total =
  let stages =
    List.filter
      (fun (s : Event.event) ->
        String.length s.Event.name > 6 && String.sub s.Event.name 0 6 = "stage:")
      spans
  in
  if stages <> [] then begin
    Buffer.add_string buf "<h2>Stage waterfall</h2>\n";
    List.iter
      (fun (s : Event.event) ->
        let left = pct (Int64.sub s.Event.t_ns t0) total in
        let width = max 0.15 (pct s.Event.dur_ns total) in
        Printf.bprintf buf
          "<div class=\"wf\"><span class=\"lbl\">%s &mdash; %s</span>\n\
           <div class=\"bar\" style=\"left:%.2f%%;width:%.2f%%;%s\"></div></div>\n"
          (esc s.Event.name) (fmt_ns s.Event.dur_ns) left width
          (span_style s.Event.name))
      stages
  end

(* ---- per-domain flame timeline ---------------------------------------- *)

let timeline buf spans t0 total tids =
  Buffer.add_string buf "<h2>Domain timeline</h2>\n";
  List.iter
    (fun tid ->
      let mine =
        List.filter (fun (s : Event.event) -> s.Event.tid = tid) spans
      in
      let max_depth =
        List.fold_left (fun d (s : Event.event) -> max d s.Event.depth) 0 mine
      in
      Printf.bprintf buf "<div class=\"dom\">domain %d</div>\n" tid;
      Printf.bprintf buf "<div class=\"lane\" style=\"height:%dpx\">\n"
        (((max_depth + 1) * 18) + 4);
      List.iter
        (fun (s : Event.event) ->
          let left = pct (Int64.sub s.Event.t_ns t0) total in
          let width = max 0.1 (pct s.Event.dur_ns total) in
          Printf.bprintf buf
            "<div class=\"bar\" style=\"left:%.2f%%;width:%.2f%%;top:%dpx;%s\" \
             title=\"%s (%s)\">%s</div>\n"
            left width
            ((s.Event.depth * 18) + 2)
            (span_style s.Event.name)
            (esc s.Event.name) (fmt_ns s.Event.dur_ns) (esc s.Event.name))
        mine;
      Buffer.add_string buf "</div>\n")
    tids

(* ---- span tree -------------------------------------------------------- *)

let tree buf spans tids =
  Buffer.add_string buf "<h2>Span tree</h2>\n";
  List.iter
    (fun tid ->
      Printf.bprintf buf "<div class=\"dom\">domain %d</div>\n" tid;
      let mine =
        List.filter (fun (s : Event.event) -> s.Event.tid = tid) spans
      in
      (* [Event.spans] orders by start time with parents before children;
         nesting follows the recorded depth directly. *)
      let depth = ref (-1) in
      let close_to d =
        while !depth >= d do
          Buffer.add_string buf "</details>\n";
          decr depth
        done
      in
      List.iter
        (fun (s : Event.event) ->
          close_to s.Event.depth;
          Printf.bprintf buf
            "<details open><summary>%s <span class=\"dur\">%s</span>"
            (esc s.Event.name) (fmt_ns s.Event.dur_ns);
          (match s.Event.fields with
          | [] -> ()
          | args ->
              Printf.bprintf buf " <span class=\"args\">%s</span>"
                (esc
                   (String.concat ", "
                      (List.map
                         (fun (k, v) -> k ^ "=" ^ Event.value_to_string v)
                         args))));
          Buffer.add_string buf "</summary>\n";
          depth := s.Event.depth)
        mine;
      close_to 0)
    tids

(* ---- metrics tables --------------------------------------------------- *)

let metrics_tables buf (m : Metrics.t) =
  if m.Metrics.counters <> [] then begin
    Buffer.add_string buf
      "<h2>Counters</h2>\n<table><tr><th>counter</th><th>value</th></tr>\n";
    List.iter
      (fun (name, v) ->
        Printf.bprintf buf "<tr><td>%s</td><td class=\"num\">%d</td></tr>\n"
          (esc name) v)
      m.Metrics.counters;
    Buffer.add_string buf "</table>\n"
  end;
  if m.Metrics.histograms <> [] then begin
    Buffer.add_string buf "<h2>Histograms</h2>\n";
    List.iter
      (fun (name, (h : Histogram.snap)) ->
        Printf.bprintf buf
          "<h3>%s</h3>\n\
           <p class=\"meta\"><span>count %d</span><span>sum %d</span></p>\n\
           <table><tr><th>&le; bound</th><th>samples</th></tr>\n"
          (esc name) h.Histogram.count h.Histogram.sum;
        List.iter
          (fun (bound, n) ->
            Printf.bprintf buf
              "<tr><td class=\"num\">%d</td><td class=\"num\">%d</td></tr>\n"
              bound n)
          h.Histogram.buckets;
        Buffer.add_string buf "</table>\n")
      m.Metrics.histograms
  end

let render ?metrics ?(title = "recpart profile") log =
  let spans = Event.spans log in
  let t0 = origin spans in
  let total = horizon spans t0 in
  let tids =
    List.sort_uniq compare (List.map (fun (s : Event.event) -> s.Event.tid) spans)
  in
  let buf = Buffer.create 8192 in
  Printf.bprintf buf
    "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">\n<title>%s</title>\n\
     <style>%s</style></head>\n<body>\n<h1>%s</h1>\n"
    (esc title) css (esc title);
  Printf.bprintf buf
    "<p class=\"meta\"><span>%d spans</span><span>%d domains</span>\
     <span>wall %s</span></p>\n"
    (List.length spans) (List.length tids) (fmt_ns total);
  if spans = [] then
    Buffer.add_string buf "<p>No spans were recorded.</p>\n"
  else begin
    waterfall buf spans t0 total;
    timeline buf spans t0 total tids;
    tree buf spans tids
  end;
  (match metrics with None -> () | Some m -> metrics_tables buf m);
  Buffer.add_string buf "</body></html>\n";
  Buffer.contents buf
