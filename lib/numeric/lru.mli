(** Sharded, capacity-bounded LRU map: the one implementation behind
    [Svc.Cache] (hex-string request keys) and [Presburger.Hc] ({!Digest}
    keys).

    Each shard owns a mutex, a hash table and an intrusive
    most-recently-used list; an operation locks exactly one shard, so
    concurrent callers with different keys rarely contend.  [hash] picks
    the shard; inside a shard keys are compared structurally.  LRU order
    is per shard: eviction picks the least recently used entry {e of the
    full shard}, which approximates global LRU the way sharded caches
    usually do.

    No counters live here ([numeric] does not depend on [obs]): {!find}
    returns an option and {!add} reports an eviction, so each caller
    bumps its own hit/miss/eviction metrics. *)

type ('k, 'v) t

val create :
  ?shards:int -> capacity:int -> hash:('k -> int) -> unit -> ('k, 'v) t
(** At most [capacity] (> 0) entries in total, split evenly over [shards]
    (default 8, clamped to ≥ 1); each shard gets ⌈capacity/shards⌉
    slots.  [hash] must be non-negative. *)

val find : ('k, 'v) t -> 'k -> 'v option
(** Lookup; a hit refreshes the entry's recency. *)

val add : ('k, 'v) t -> 'k -> 'v -> bool
(** Insert (or overwrite) as most recently used; [true] when the shard
    was full and its least recently used entry was evicted. *)

val length : ('k, 'v) t -> int
(** Entries held, summed over the shards (locks each in turn). *)

val capacity : ('k, 'v) t -> int
(** Effective total capacity: [shards × ⌈capacity/shards⌉ ≥ capacity]. *)

val clear : ('k, 'v) t -> unit
(** Drops every entry. *)
