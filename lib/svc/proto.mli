(** JSONL request/response records for the analysis service.

    One request per line:

    {v {"id":"r1","name":"ex1","src":"DO i = 1, n\n  ...\nENDDO",
    "params":{"n":30},"strategy":"rec","threads":2,"mode":"run",
    "survey":true,"deadline_s":2.5} v}

    [id], [name] and [src] are required ([strategy], [threads], [mode],
    [survey], [deadline_s] optional); programmatic clients may pass an
    already-parsed program instead of source text.  Introspective modes
    ([{"id":"m1","mode":"metrics"}], [{"id":"h1","mode":"health"}]) need
    only [id].  One response per line: [{"id", "trace", "status": "ok" |
    "error", "cached", timing, …}] with the plan/report payload, the
    telemetry/health payload, or a typed error record — a malformed
    request produces an error {e record}, never a crash.

    A run or classify answer is encoded once, when it is computed
    ({!encode_done}); the service caches those bytes, and every reply,
    the first and each hit alike, writes them behind a fresh envelope. *)

type source =
  | Src of string  (** mini-Fortran source text, parsed by the worker *)
  | Prog of Loopir.Ast.program  (** pre-parsed (library clients) *)

type mode =
  | Run  (** full pipeline: classify → … → execute, returns a report *)
  | Classify
      (** survey classification only (dependence uniformity + coupled
          subscripts); no schedule is built or executed *)
  | Metrics
      (** live-telemetry snapshot: Prometheus text + JSON over the [Obs]
          registries and windowed quantiles; no program is analyzed *)
  | Health
      (** service liveness: pool alive, queue headroom, cache shards
          responsive *)

val mode_name : mode -> string
(** ["run"], ["classify"], ["metrics"], ["health"]. *)

val introspective : mode -> bool
(** [true] for {!Metrics}/{!Health} — requests that carry no program
    ([name]/[src] optional in the JSON form) and are never cached. *)

type request = {
  id : string;
  name : string;
  source : source;
  params : (string * int) list;
  strategy : Pipeline.Plan.strategy option;
  threads : int option;  (** overrides the service default *)
  mode : mode;
  survey : bool;  (** attach the survey block to a [Run] response too *)
  deadline_s : float option;  (** overrides the service default *)
}

val request :
  ?params:(string * int) list ->
  ?strategy:Pipeline.Plan.strategy ->
  ?threads:int ->
  ?mode:mode ->
  ?survey:bool ->
  ?deadline_s:float ->
  id:string ->
  name:string ->
  source ->
  request
(** Smart constructor with the JSON defaults ([mode = Run],
    [survey = false]). *)

type survey = {
  cls : string;  (** {!Depend.Distance.class_to_string} *)
  coupled : bool;  (** some reference couples a loop index *)
  via : string;  (** ["exact"] or ["instance-graph"] *)
}

type failure =
  | Bad_request of string  (** request line or program source malformed *)
  | Pipeline_error of { stage : string; label : string; message : string }
      (** a pipeline stage failed with a typed {!Diag.error} *)
  | Deadline of { limit_s : float; elapsed_s : float }
  | Panic of string  (** unexpected exception, isolated by the worker *)
  | Overloaded of { queue_depth : int; queue_capacity : int }
      (** the bounded pool queue was full and the request was shed
          (network server load shedding); the record carries the queue
          state so clients can size their backoff *)
  | Draining
      (** the server is in graceful shutdown: in-flight requests finish,
          new ones get this record *)

val failure_kind : failure -> string
(** ["bad-request"], ["pipeline"], ["deadline"], ["panic"],
    ["overloaded"], ["drain"]. *)

val failure_message : failure -> string

type body =
  | Done of { payload : string; name : string }
      (** a run or classify answer: a {!readable} {!encode_done}
          payload, whose body the reply line carries with the report's
          [program] member for [name] spliced back in *)
  | Stats of {
      prometheus : string;  (** {!Obs.Export.prometheus} text *)
      snapshot : Pipeline.Json.t;  (** parsed {!Obs.Export.json_string} *)
    }  (** answer to a {!Metrics} request *)
  | Healthy of { ok : bool; detail : Pipeline.Json.t }
      (** answer to a {!Health} request; the op itself succeeded even
          when [ok = false] *)
  | Failed of failure

type response = {
  id : string;
  trace : string;
      (** the {!Obs.Ctx} trace id the request ran under ([""] when it
          never reached the service, e.g. parse-failure records) *)
  cached : bool;
  queue_s : float;  (** submit → dequeue *)
  run_s : float;  (** dequeue → response *)
  body : body;
}

val ok : response -> bool

(* ---- JSON ------------------------------------------------------------ *)

type parse_failure = {
  line_id : string option;
      (** the record's [id] when the line parsed far enough to have one *)
  message : string;
}

val request_of_line : string -> (request, parse_failure) result
(** Parse one JSONL request line (strict {!Pipeline.Json.parse}). *)

val request_to_json : request -> Pipeline.Json.t
(** Inverse of {!request_of_line} for corpus generators and tests
    ([Prog] sources are pretty-printed into [src]). *)

val response_to_line : response -> string
(** Compact single-line rendering (the JSONL response format): the
    envelope — [id], [trace], [status], [cached], [queue_seconds],
    [run_seconds] — then the body's members. *)

(* ---- cached Done bodies ----------------------------------------------- *)

val encode_done :
  ?strategy:string ->
  ?describe:string ->
  ?survey:survey ->
  ?report:Pipeline.Report.t ->
  unit ->
  string
(** The cached form of a [Done] body, what {!Cache} and {!Store} keep:
    the body's bytes, with the report's [program] member left out,
    behind a tag that names the reply format.  A reply splices the
    member back in as the report's first, the requester's name escaped
    as {!Pipeline.Json} escapes a string. *)

val readable : string -> bool
(** [true] when a payload carries this build's tag.  Any other tag is a
    stale reply format: the service reads it as a miss and overwrites it. *)

val error_response :
  ?id:string ->
  ?trace:string ->
  ?queue_s:float ->
  ?run_s:float ->
  failure ->
  response
(** A response record for a request that never reached a worker (e.g. an
    unparsable line); [id] defaults to ["?"], [trace] to [""]. *)
