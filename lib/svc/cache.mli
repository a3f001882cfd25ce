(** Sharded LRU cache of encoded replies over content-addressed
    {!Key}s.  A value is a string: the service keeps the bytes
    {!Proto.encode_done} produced, and the cache and its {!Store} tier
    hold exactly the same bytes.

    Each shard owns a mutex, a hash table and an intrusive
    most-recently-used list; a lookup or insert locks exactly one shard,
    so concurrent requests for different keys rarely contend.  Hit, miss
    and eviction totals are {!Obs.Counter}s registered as
    [svc.cache.<name>.hits|misses|evictions], so they appear in
    {!Obs.Metrics} snapshots and pipeline reports for free.

    Coherence model: the cache stores immutable analysis results keyed by
    content hash, so there is nothing to invalidate — a key maps to one
    result for as long as the reply format lasts.  Two domains missing
    on the same key concurrently may both compute it; the second {!add}
    simply overwrites the first (the same result, with its own
    timings).  LRU order is per shard: eviction picks the least
    recently used entry {e of the full shard}, which approximates global
    LRU the way sharded caches usually do. *)

type t

val create : ?shards:int -> capacity:int -> name:string -> unit -> t
(** [create ~capacity ~name ()] holds at most [capacity] entries in
    total, split evenly over [shards] (default 8, clamped to ≥ 1; each
    shard gets at least one slot — the effective total is
    [shards × ⌈capacity/shards⌉ ≥ capacity]).  [name] scopes the metric
    counters; caches sharing a name share counters. *)

val attach_store : t -> store:Store.t -> unit
(** Attach a durable {!Store} as a read-through / write-behind second
    tier: {!find} falls through to the store on a memory miss (a stored
    payload is promoted into memory without re-appending it), and {!add}
    also appends the value to the log.  The cache does not read the
    bytes; {!find}'s [usable] does.  @raise Invalid_argument if a tier is
    already attached. *)

val find : t -> usable:(string -> bool) -> Key.t -> string option
(** Lookup of a value [usable] accepts; a hit refreshes the entry's
    recency.  With a store tier attached, a memory miss that hits the
    log counts as a [svc.store.hits] (the memory miss counter still
    moves — diff the two layers to separate warm from disk-warm
    traffic).  A value [usable] rejects is a miss in its layer, and a
    rejected record is not promoted: the caller recomputes it and
    {!add}s the new value, which rewrites the record. *)

val add : t -> Key.t -> string -> unit
(** Insert (or overwrite) as most recently used, evicting the shard's LRU
    entry when the shard is full; with a store tier attached, the value
    is also appended to the log (write-behind). *)

val length : t -> int

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  size : int;
  capacity : int;  (** effective total capacity (see {!create}) *)
}

val stats : t -> stats
(** Counter totals are cumulative for the process (they are shared
    metrics); diff two [stats] for a per-run view. *)
