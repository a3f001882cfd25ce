let us_of_ns ns = Int64.to_float ns /. 1e3

(* Timestamps are shifted so the earliest span starts at 0 — Chrome's UI
   shows absolute microseconds, and boot-relative values are noise. *)
let origin spans =
  List.fold_left
    (fun acc (s : Event.event) ->
      match acc with
      | None -> Some s.Event.t_ns
      | Some t -> Some (min t s.Event.t_ns))
    None spans
  |> Option.value ~default:0L

let event buf ~first ~t0 (s : Event.event) =
  if not first then Buffer.add_string buf ",\n    ";
  Buffer.add_string buf "{\"name\": ";
  Jsonw.escape buf s.Event.name;
  Buffer.add_string buf ", \"cat\": \"recpart\", \"ph\": \"X\"";
  Printf.bprintf buf ", \"ts\": %.3f" (us_of_ns (Int64.sub s.Event.t_ns t0));
  Printf.bprintf buf ", \"dur\": %.3f" (us_of_ns s.Event.dur_ns);
  Printf.bprintf buf ", \"pid\": 0, \"tid\": %d" s.Event.tid;
  (match s.Event.fields with
  | [] -> ()
  | args ->
      Buffer.add_string buf ", \"args\": {";
      List.iteri
        (fun k (key, v) ->
          if k > 0 then Buffer.add_string buf ", ";
          Jsonw.escape buf key;
          Buffer.add_string buf ": ";
          Jsonw.escape buf (Event.value_to_string v))
        args;
      Buffer.add_char buf '}');
  Buffer.add_char buf '}'

let counter_event buf ~t_us name v =
  Buffer.add_string buf ",\n    {\"name\": ";
  Jsonw.escape buf name;
  Printf.bprintf buf
    ", \"cat\": \"recpart\", \"ph\": \"C\", \"ts\": %.3f, \"pid\": 0, \
     \"args\": {\"value\": %d}}"
    t_us v

let to_chrome_json ?metrics ?(process = "recpart") log =
  let spans = Event.spans log in
  let t0 = origin spans in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n  \"traceEvents\": [\n    ";
  Buffer.add_string buf "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 0, \"args\": {\"name\": ";
  Jsonw.escape buf process;
  Buffer.add_string buf "}}";
  List.iter (fun s -> event buf ~first:false ~t0 s) spans;
  (match metrics with
  | None -> ()
  | Some m ->
      let t_end =
        List.fold_left
          (fun acc (s : Event.event) ->
            max acc (us_of_ns (Int64.sub (Int64.add s.Event.t_ns s.Event.dur_ns) t0)))
          0.0 spans
      in
      List.iter
        (fun (name, v) -> counter_event buf ~t_us:t_end name v)
        m.Metrics.counters);
  Buffer.add_string buf "\n  ],\n  \"displayTimeUnit\": \"ms\"\n}\n";
  Buffer.contents buf

(* ---- text tree ------------------------------------------------------- *)

let fmt_ns ns =
  let f = Int64.to_float ns in
  if f >= 1e9 then Printf.sprintf "%8.3f s " (f /. 1e9)
  else if f >= 1e6 then Printf.sprintf "%8.3f ms" (f /. 1e6)
  else if f >= 1e3 then Printf.sprintf "%8.3f us" (f /. 1e3)
  else Printf.sprintf "%8.0f ns" f

let to_text log =
  let spans = Event.spans log in
  let tids =
    List.sort_uniq compare (List.map (fun (s : Event.event) -> s.Event.tid) spans)
  in
  let buf = Buffer.create 1024 in
  List.iter
    (fun tid ->
      Printf.bprintf buf "domain %d\n" tid;
      List.iter
        (fun (s : Event.event) ->
          if s.Event.tid = tid then begin
            let indent = String.make (2 * (s.Event.depth + 1)) ' ' in
            let label =
              match s.Event.fields with
              | [] -> s.Event.name
              | args ->
                  s.Event.name ^ " ["
                  ^ String.concat ", "
                      (List.map
                         (fun (k, v) -> k ^ "=" ^ Event.value_to_string v)
                         args)
                  ^ "]"
            in
            let pad = max 1 (46 - String.length indent - String.length label) in
            Printf.bprintf buf "%s%s%s%s\n" indent label (String.make pad ' ')
              (fmt_ns s.Event.dur_ns)
          end)
        spans)
    tids;
  Buffer.contents buf
