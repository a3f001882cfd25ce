(** Export of the spans an {!Event} log recorded.

    {!to_chrome_json} renders the Chrome [trace_event] JSON format (an
    object with a ["traceEvents"] array of complete ["ph":"X"] events,
    timestamps in microseconds) — load the file in [chrome://tracing] or
    {{:https://ui.perfetto.dev}Perfetto}.  Spans ({!Event.spans}, in
    start-time order) become one row per domain ([tid]); the log's
    decision events are left out.  Counters, when given, are appended as
    ["ph":"C"] counter events so they plot as tracks.

    {!to_text} renders the same spans as an indented per-domain tree for
    terminals. *)

val to_chrome_json : ?metrics:Metrics.t -> ?process:string -> Event.t -> string

val to_text : Event.t -> string
