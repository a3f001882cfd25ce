(** Durable content-addressed payload store: an append-only,
    checksummed, per-shard log under one directory.

    The store is the disk tier below {!Cache}: payloads (encoded reply
    bodies behind {!Proto}'s format tag; the store itself never reads
    them) are keyed by {!Key} digest, appended to [shard-NN.log] inside
    the store directory, and indexed in memory.
    Because keys are content hashes there is nothing to invalidate — a
    key maps to one value forever; a duplicate append simply supersedes
    the earlier record (last record wins at recovery).  A store
    directory is self-contained: it can be rsync'd to another replica or
    reopened by a later process, and the pinned {!Key} digest format
    makes it double as a cross-version compatibility check.

    {b Record layout} (all integers little-endian):

    {v magic "RPS1" | key_len u32 | payload_len u32 |
   digest 16B (two FNV-1a lanes over len-framed key+payload) |
   key bytes | payload bytes v}

    {b Recovery rules}: on open, each shard log is scanned from the
    front; a record is accepted only if the magic matches, the lengths
    are sane, the bytes are all present and the recomputed
    {!Numeric.Digest} equals the stored one.  The first violation —
    a torn tail from a crash mid-append, or any corruption — truncates
    the file at the last good record (append-only logs have no valid
    data after a bad record), counts the dropped bytes in
    [svc.store.truncated_bytes], and every accepted record rebuilds the
    in-memory index ([svc.store.recovered]).

    {b Write-behind}: {!add} buffers the record in memory (immediately
    readable) and appends to the log when the shard has [flush_every]
    pending records, on {!flush}, or at {!close}.  A crash between
    {!add} and the next flush loses only those cache entries — they are
    recomputable by definition.

    Counters: [svc.store.{hits,misses,appends,flushes,recovered}] and
    [svc.store.truncated_bytes], all visible in {!Obs.Metrics}
    snapshots and the service's [metrics] op. *)

type t

val open_dir : ?shards:int -> ?flush_every:int -> string -> t
(** [open_dir dir] creates [dir] (one level) if missing, then opens or
    recovers [shards] (default 8) shard logs inside it.  [flush_every]
    (default 32) is the per-shard pending-record count that triggers an
    automatic append.  @raise Sys_error / [Unix.Unix_error] when the
    directory cannot be created or a log cannot be opened. *)

val find : t -> usable:(string -> bool) -> Key.t -> string option
(** Payload for a key, from the pending buffer or the log, when [usable]
    accepts it.  Counted in [svc.store.hits]; an absent, unreadable or
    rejected payload counts in [svc.store.misses] and reads [None]. *)

val add : t -> Key.t -> string -> unit
(** Buffer a record for append (write-behind); immediately visible to
    {!find}.  Re-adding a key supersedes the old payload. *)

val flush : t -> unit
(** Append every pending record to its shard log.  Not fsync'd — the
    data is in the OS page cache; {!close} flushes and fsyncs. *)

val close : t -> unit
(** {!flush}, fsync and close every shard log.  Idempotent; {!find} and
    {!add} raise [Invalid_argument] afterwards. *)

val entries : t -> int
(** Distinct keys currently indexed (pending + on disk). *)

val dir : t -> string

type recovery = {
  recovered : int;  (** records accepted at {!open_dir} *)
  truncated_bytes : int;  (** bytes dropped by torn-tail truncation *)
}

val recovery : t -> recovery
(** What the last {!open_dir} recovery found (zeros for a fresh dir). *)
