type ('k, 'v) node = {
  key : 'k;
  mutable value : 'v;
  mutable prev : ('k, 'v) node option;
  mutable next : ('k, 'v) node option;
}

type ('k, 'v) shard = {
  m : Mutex.t;
  tbl : ('k, ('k, 'v) node) Hashtbl.t;
  mutable head : ('k, 'v) node option;  (* most recently used *)
  mutable tail : ('k, 'v) node option;  (* least recently used *)
  mutable size : int;
  cap : int;
}

type ('k, 'v) t = { shards : ('k, 'v) shard array; hash : 'k -> int }

let create ?(shards = 8) ~capacity ~hash () =
  if capacity <= 0 then invalid_arg "Lru.create: capacity must be > 0";
  let shards = max 1 shards in
  let per_shard = (capacity + shards - 1) / shards in
  {
    shards =
      Array.init shards (fun _ ->
          {
            m = Mutex.create ();
            tbl = Hashtbl.create 16;
            head = None;
            tail = None;
            size = 0;
            cap = per_shard;
          });
    hash;
  }

let shard_of t k = t.shards.(t.hash k mod Array.length t.shards)

let locked sh f =
  Mutex.lock sh.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock sh.m) f

(* List surgery below runs under the shard mutex. *)

let unlink sh n =
  (match n.prev with Some p -> p.next <- n.next | None -> sh.head <- n.next);
  (match n.next with Some s -> s.prev <- n.prev | None -> sh.tail <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front sh n =
  n.next <- sh.head;
  n.prev <- None;
  (match sh.head with Some h -> h.prev <- Some n | None -> sh.tail <- Some n);
  sh.head <- Some n

let find t k =
  let sh = shard_of t k in
  locked sh (fun () ->
      match Hashtbl.find_opt sh.tbl k with
      | Some n ->
          unlink sh n;
          push_front sh n;
          Some n.value
      | None -> None)

let add t k v =
  let sh = shard_of t k in
  locked sh (fun () ->
      match Hashtbl.find_opt sh.tbl k with
      | Some n ->
          n.value <- v;
          unlink sh n;
          push_front sh n;
          false
      | None -> (
          let n = { key = k; value = v; prev = None; next = None } in
          Hashtbl.replace sh.tbl k n;
          push_front sh n;
          sh.size <- sh.size + 1;
          if sh.size <= sh.cap then false
          else
            match sh.tail with
            | Some lru ->
                unlink sh lru;
                Hashtbl.remove sh.tbl lru.key;
                sh.size <- sh.size - 1;
                true
            | None -> assert false))

let length t =
  Array.fold_left (fun acc sh -> acc + locked sh (fun () -> sh.size)) 0 t.shards

let capacity t = Array.fold_left (fun acc sh -> acc + sh.cap) 0 t.shards

let clear t =
  Array.iter
    (fun sh ->
      locked sh (fun () ->
          Hashtbl.reset sh.tbl;
          sh.head <- None;
          sh.tail <- None;
          sh.size <- 0))
    t.shards
