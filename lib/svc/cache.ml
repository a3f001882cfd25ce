type t = {
  lru : (Key.t, string) Numeric.Lru.t;
  hits : Obs.Counter.t;
  misses : Obs.Counter.t;
  evictions : Obs.Counter.t;
  mutable store : Store.t option;
      (* optional durable second tier: a memory miss falls through to
         it, a stored payload is promoted into memory, and every insert
         is written behind to its log *)
}

let create ?shards ~capacity ~name () =
  {
    lru = Numeric.Lru.create ?shards ~capacity ~hash:Key.hash ();
    hits = Obs.Counter.make (Printf.sprintf "svc.cache.%s.hits" name);
    misses = Obs.Counter.make (Printf.sprintf "svc.cache.%s.misses" name);
    evictions = Obs.Counter.make (Printf.sprintf "svc.cache.%s.evictions" name);
    store = None;
  }

let attach_store t ~store =
  if Option.is_some t.store then
    invalid_arg "Svc.Cache.attach_store: tier already attached";
  t.store <- Some store

(* Memory insert without touching the store tier — shared by [add] and
   the disk-hit promotion path (which must not re-append the record it
   just read). *)
let add_mem t k v =
  if Numeric.Lru.add t.lru k v then Obs.Counter.incr t.evictions

let find t ~usable k =
  let in_mem =
    match Numeric.Lru.find t.lru k with
    | Some v when usable v -> Some v
    | Some _ | None -> None
  in
  Obs.Counter.incr (if Option.is_some in_mem then t.hits else t.misses);
  match (in_mem, t.store) with
  | (Some _ as hit), _ -> hit
  | None, None -> None
  | None, Some store -> (
      (* Read-through outside the shard lock: the store has its own
         locks and a disk read must not block the hot memory path.  A
         record [usable] rejects is a store miss and is not promoted. *)
      match Store.find store ~usable k with
      | None -> None
      | Some v as hit ->
          add_mem t k v;
          hit)

(* With a store attached, [add] follows a miss: the key was not on
   disk, its record there was unreadable, or a concurrent miss raced
   this one.  Appending in every case rewrites an unreadable record; a
   duplicate append is harmless, since the last record wins. *)
let add t k v =
  add_mem t k v;
  Option.iter (fun store -> Store.add store k v) t.store

let length t = Numeric.Lru.length t.lru

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  size : int;
  capacity : int;
}

let stats (t : t) =
  {
    hits = Obs.Counter.value t.hits;
    misses = Obs.Counter.value t.misses;
    evictions = Obs.Counter.value t.evictions;
    size = length t;
    capacity = Numeric.Lru.capacity t.lru;
  }
