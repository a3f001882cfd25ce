(* Optional durable second tier: a memory miss falls through to the
   store, a decoded payload is promoted into memory, and every insert is
   written behind to the log.  The codec lives with the tier because the
   cache is polymorphic and the store speaks strings. *)
type 'v tier = {
  t_store : Store.t;
  t_encode : 'v -> string;
  t_decode : string -> 'v option;
}

type 'v t = {
  lru : (Key.t, 'v) Numeric.Lru.t;
  hits : Obs.Counter.t;
  misses : Obs.Counter.t;
  evictions : Obs.Counter.t;
  mutable tier : 'v tier option;
}

let create ?shards ~capacity ~name () =
  {
    lru = Numeric.Lru.create ?shards ~capacity ~hash:Key.hash ();
    hits = Obs.Counter.make (Printf.sprintf "svc.cache.%s.hits" name);
    misses = Obs.Counter.make (Printf.sprintf "svc.cache.%s.misses" name);
    evictions = Obs.Counter.make (Printf.sprintf "svc.cache.%s.evictions" name);
    tier = None;
  }

let attach_store t ~store ~encode ~decode =
  if Option.is_some t.tier then
    invalid_arg "Svc.Cache.attach_store: tier already attached";
  t.tier <- Some { t_store = store; t_encode = encode; t_decode = decode }

let store t = Option.map (fun tier -> tier.t_store) t.tier

(* Memory insert without touching the store tier — shared by [add] and
   the disk-hit promotion path (which must not re-append the record it
   just read). *)
let add_mem t k v =
  if Numeric.Lru.add t.lru k v then Obs.Counter.incr t.evictions

let find t k =
  let in_mem = Numeric.Lru.find t.lru k in
  Obs.Counter.incr (if Option.is_some in_mem then t.hits else t.misses);
  match (in_mem, t.tier) with
  | (Some _ as hit), _ -> hit
  | None, None -> None
  | None, Some tier -> (
      (* Read-through outside the shard lock: the store has its own
         locks and a disk read must not block the hot memory path. *)
      match Option.bind (Store.find tier.t_store k) tier.t_decode with
      | None -> None
      | Some v as hit ->
          add_mem t k v;
          hit)

let add t k v =
  add_mem t k v;
  match t.tier with
  | None -> ()
  | Some tier ->
      (* Skip re-appending a key the log already holds (memory eviction
         followed by recompute would otherwise grow the log forever); a
         racing duplicate append is harmless — last record wins. *)
      if not (Store.mem tier.t_store k) then
        Store.add tier.t_store k (tier.t_encode v)

let length t = Numeric.Lru.length t.lru

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  size : int;
  capacity : int;
}

let stats (t : 'v t) =
  {
    hits = Obs.Counter.value t.hits;
    misses = Obs.Counter.value t.misses;
    evictions = Obs.Counter.value t.evictions;
    size = length t;
    capacity = Numeric.Lru.capacity t.lru;
  }
