(** Always-on flight recorder — per-domain ring buffers of the most
    recent spans and [Info]-and-above events, kept so a failed request
    can be explained after the fact without re-running under an
    attached log.

    Unlike {!Event} logs (which grow without bound and are attached by
    a top-level command), the recorder is process-global and
    fixed-size: each domain writes into its own ring of [capacity]
    fixed-width slots, overwriting the oldest entry.  Recording is lock-free and copying —
    the owning domain copies the entry's fields into its preallocated
    ring storage (truncating oversized strings to the slot), so nothing
    recorded retains caller-allocated memory and the recorder adds no
    GC pressure.  The one shared cost on the hot path is a single atomic
    flag read, so {!Span.with_}/{!Event.emit} stay cheap when the
    recorder is off.

    {!entries} reads other domains' rings without synchronization; a ring
    being written concurrently can yield a slightly torn view (one entry
    missing or duplicated at the overwrite frontier).  That is the
    documented trade: dumps happen on failure paths where a best-effort
    recent-history view is worth much more than a barrier on every
    record. *)

type entry = {
  kind : string;  (** ["span"] or ["event"] *)
  scope : string;  (** event scope; [""] for spans *)
  name : string;
  req : string;  (** originating {!Ctx} trace id; [""] when none *)
  tid : int;  (** recording domain *)
  t_ns : int64;  (** {!Clock.now_ns} at span start / event emission *)
  dur_ns : int64;  (** span duration; [0] for events *)
  detail : (string * string) list;  (** span args / stringified fields *)
}

val enable : ?capacity:int -> unit -> unit
(** Turns recording on.  [capacity] (default 256, ≥ 1) is slots {e per
    domain}; changing it resets every ring. *)

val disable : unit -> unit
(** Turns recording off; already-recorded entries remain readable. *)

val enabled : unit -> bool

val record : entry -> unit
(** Appends to the calling domain's ring (no-op when disabled).  Called
    by {!Span} and {!Event}; direct use is fine for layer-specific
    breadcrumbs.  Slots are fixed-width: oversized strings are
    truncated and detail pairs beyond the slot are dropped. *)

val entries : ?req:string -> unit -> entry list
(** Everything currently held across all rings, oldest first (merged by
    timestamp); [?req] keeps only entries attributed to that trace id.
    Best-effort under concurrent writers — see the module comment. *)

val clear : unit -> unit
(** Drops all rings (they are recreated lazily on the next record). *)

val to_jsonl : entry list -> string
(** One JSON object per line — [kind], [t_us] (relative to the earliest
    entry in the list), [dur_us], [tid], [req], [scope], [name],
    [detail] — each line parses with [Pipeline.Json.parse].  This is the
    flight-dump artifact format. *)
