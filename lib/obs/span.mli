(** Nested, monotonic-clock-timed spans.

    [with_ ~name f] times [f] and records one span into the ambient
    {!Event} log (or [?log]) when that log is recording, and an entry
    into the {!Flight} recorder when that is enabled; with no log
    attached and the recorder off the overhead is a single branch.  When
    an {!Ctx} is installed on the recording domain, the span carries a
    [("req", trace-id)] argument.  Nesting depth is tracked per domain,
    so spans opened inside spawned domains are independent timelines
    tagged with that domain's id. *)

val with_ :
  ?log:Event.t ->
  name:string ->
  ?args:(string * string) list ->
  (unit -> 'a) ->
  'a
(** Runs [f] inside a span.  The span is recorded even when [f] raises
    (the exception is re-raised); [args] become the record's [Str]
    fields and Chrome-trace [args]. *)
