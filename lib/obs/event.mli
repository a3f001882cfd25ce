(** The per-run recording: structured decision events and timed spans
    in one log.

    Events answer {e why the compiler took a branch}: which dependence
    test fired and what it concluded, why Algorithm 1 chose or rejected
    a strategy, what the partition looked like.  Each event is a named
    record with a severity and typed key/value fields, stamped with the
    emitting domain and a monotonic timestamp, and sequenced so a log
    replays in emission order even across domains.  Spans answer {e where
    time went}: {!Span.with_} records each one into the same log as a
    record marked [span], carrying its duration and nesting depth.
    Readers pick their half: {!events} and {!to_jsonl} see decision
    events only (what [recpart explain] prints), {!spans} sees spans
    only (what {!Trace}, {!Html} and {!Critpath} read).

    The default log is {!null}: with it, {!emit} costs one branch plus
    the (unevaluated) field thunk and a span site one branch, so
    instrumentation can stay in hot paths.  A top-level command attaches
    one recording log for the whole process with {!with_ambient}; no
    library layer attaches or passes a log.  Recording is lock-free: each
    domain appends to its own cell of the log. *)

type value = Bool of bool | Int of int | Float of float | Str of string

type severity = Debug | Info | Warn

val severity_name : severity -> string
(** ["debug"], ["info"], ["warn"]. *)

type event = {
  scope : string;
      (** subsystem, e.g. ["depend"], ["partition"]; [""] on spans *)
  name : string;  (** event kind within the scope, e.g. ["choose.rec"] *)
  severity : severity;
  fields : (string * value) list;
      (** typed payload, in emission order; a span's args as [Str]s *)
  tid : int;  (** domain that emitted the event *)
  t_ns : int64;  (** {!Clock.now_ns} at emission; a span's start *)
  seq : int;
      (** emission order among the log's decision events (gap-free per
          log); [-1] on spans, which order by [t_ns] *)
  dur_ns : int64;  (** a span's duration (≥ 0); [0] for decision events *)
  depth : int;
      (** a span's nesting depth within its domain; [0] for decision
          events *)
  span : bool;  (** [true] on a {!Span.with_} record *)
}

type t

val null : t
(** Drops everything; {!enabled} is [false]. *)

val make : unit -> t
(** A fresh recording log. *)

val enabled : t -> bool

val emit :
  ?log:t ->
  ?severity:severity ->
  scope:string ->
  name:string ->
  (unit -> (string * value) list) ->
  unit
(** [emit ~scope ~name fields] appends one event to [log] (default: the
    ambient log) and, when the {!Flight} recorder is enabled and the
    severity is [Info] or above, to the calling domain's flight ring —
    [Debug] events are breadcrumbs for attached logs only, so hot paths
    can emit them for the price of one branch.  The field thunk is only
    forced when something records; if an {!Ctx} is installed, a
    [("req", trace-id)] field is appended (logs record it as a field,
    the flight ring in the entry's [req] slot).  Lock-free; safe from
    any domain. *)

val record : t -> event -> unit
(** Appends a finished record to the calling domain's cell as it is (no
    [seq] is assigned, nothing goes to the flight ring); no-op on
    {!null}.  {!Span.with_} records its spans this way. *)

val events : t -> event list
(** The decision events recorded so far, in emission ([seq]) order.
    Call after joining worker domains. *)

val spans : t -> event list
(** The spans recorded so far, sorted by start time (ties by depth, so
    parents precede their children, then by domain).  Call after joining
    worker domains. *)

val value_to_string : value -> string
(** A field value as plain text ([Float]s with [%.9g]). *)

val clear : t -> unit
(** Forgets every recorded event and span (the log remains usable). *)

val ambient : unit -> t
(** The process-wide default log {!emit} and {!Span.with_} record into
    when no explicit log is given.  Starts as {!null}. *)

val with_ambient : t -> (unit -> 'a) -> 'a
(** Runs [f] with the ambient log swapped to [t], restoring the previous
    one afterwards (also on exceptions). *)

val to_jsonl : t -> string
(** One JSON object per decision event, in emission order: [seq],
    [t_us] (relative to the first event), [tid], [severity], [scope],
    [name], and the typed [fields] as a nested object.  Each line parses with
    [Pipeline.Json.parse]; the whole string is the JSONL event-log
    artifact format. *)
