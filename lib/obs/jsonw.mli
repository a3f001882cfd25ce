(** The JSON string writer every [obs] exporter shares.

    obs sits below the pipeline layer, so its exporters (Chrome trace,
    event and flight JSONL, the metrics snapshot) write JSON directly
    rather than through [Pipeline.Json]; the tests parse their output
    back with [Pipeline.Json.parse]. *)

val escape : Buffer.t -> string -> unit
(** Appends [s] as a quoted JSON string literal: quote, backslash,
    [\n], [\r] and [\t] get their short escapes, other control
    characters [\u00XX]; every other byte is copied as is. *)
