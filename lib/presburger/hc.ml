(* Content-addressed node and memo tables for the presburger layer.

   Every table is keyed by a 128-bit Numeric.Digest (the same FNV-1a
   discipline as Svc.Key) and digest equality is treated as definitive:
   a hit returns the stored value without re-checking the inputs
   structurally.  Tables are sharded Numeric.Lru maps, so they stay
   capacity-bounded under unbounded batch/serve traffic — eviction only
   costs a recomputation, never correctness.

   Counters are registered per table as presburger.memo.<name>.{hits,
   misses,evictions}; Pipeline.Report and `recpart explain` surface them
   through the generic Obs.Metrics diff. *)

module D = Numeric.Digest

type 'v memo = {
  lru : (D.t, 'v) Numeric.Lru.t;
  hits : Obs.Counter.t;
  misses : Obs.Counter.t;
  evictions : Obs.Counter.t;
}

(* Memoization is process-wide and on by default; tests flip it off to
   compute unmemoized reference results, benches clear the tables to
   measure a cold analyze.  The registry keeps one clear thunk and the
   counter triple per table. *)
let enabled_flag = Atomic.make true
let set_enabled b = Atomic.set enabled_flag b
let enabled () = Atomic.get enabled_flag

type entry = {
  e_clear : unit -> unit;
  e_hits : Obs.Counter.t;
  e_misses : Obs.Counter.t;
  e_evictions : Obs.Counter.t;
}

let registry : entry list ref = ref []
let registry_m = Mutex.create ()

let memo ?shards ~name ~capacity () =
  let t =
    {
      lru = Numeric.Lru.create ?shards ~capacity ~hash:D.hash ();
      hits = Obs.Counter.make (Printf.sprintf "presburger.memo.%s.hits" name);
      misses =
        Obs.Counter.make (Printf.sprintf "presburger.memo.%s.misses" name);
      evictions =
        Obs.Counter.make (Printf.sprintf "presburger.memo.%s.evictions" name);
    }
  in
  Mutex.lock registry_m;
  registry :=
    {
      e_clear = (fun () -> Numeric.Lru.clear t.lru);
      e_hits = t.hits;
      e_misses = t.misses;
      e_evictions = t.evictions;
    }
    :: !registry;
  Mutex.unlock registry_m;
  t

let clear_all () =
  Mutex.lock registry_m;
  let entries = !registry in
  Mutex.unlock registry_m;
  List.iter (fun e -> e.e_clear ()) entries

type totals = { hits : int; misses : int; evictions : int }

let totals () =
  Mutex.lock registry_m;
  let entries = !registry in
  Mutex.unlock registry_m;
  List.fold_left
    (fun acc e ->
      {
        hits = acc.hits + Obs.Counter.value e.e_hits;
        misses = acc.misses + Obs.Counter.value e.e_misses;
        evictions = acc.evictions + Obs.Counter.value e.e_evictions;
      })
    { hits = 0; misses = 0; evictions = 0 }
    entries

let find t k =
  let v = Numeric.Lru.find t.lru k in
  Obs.Counter.incr (if Option.is_some v then t.hits else t.misses);
  v

let add t k v = if Numeric.Lru.add t.lru k v then Obs.Counter.incr t.evictions

(* The compute runs outside the shard lock: concurrent misses on the same
   key both compute and both store (last write wins) — duplicated work,
   never an inconsistent table.  An exception from [f] propagates and
   caches nothing. *)
let get t k f =
  if not (Atomic.get enabled_flag) then f ()
  else
    match find t k with
    | Some v -> v
    | None ->
        let v = f () in
        add t k v;
        v

let length t = Numeric.Lru.length t.lru
