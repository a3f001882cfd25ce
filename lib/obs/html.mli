(** Self-contained HTML profile reports.

    [render] turns the spans of a recorded {!Event} log (plus an
    optional {!Metrics} snapshot) into one HTML page with no external assets — inline CSS
    only, so the file can be attached to a CI run or mailed around and
    still render.  Sections:

    - a header with wall-clock span, span count and domain count;
    - a stage waterfall built from the driver's [stage:*] spans;
    - a per-domain flame timeline (every span positioned by start time
      and nesting depth);
    - the full span tree as nested [<details>] elements;
    - counter and histogram tables when metrics are given.

    Like {!Trace}, this sits below the pipeline layer and writes its
    output directly. *)

val render : ?metrics:Metrics.t -> ?title:string -> Event.t -> string
(** [render log] is the complete HTML document.  [title] defaults to
    ["recpart profile"]. *)
