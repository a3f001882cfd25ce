type entry = {
  kind : string;
  scope : string;
  name : string;
  req : string;
  tid : int;
  t_ns : int64;
  dur_ns : int64;
  detail : (string * string) list;
}

(* One ring per (domain, generation): only the owning domain writes, so
   recording is plain stores — no synchronization on the hot path.
   [clear]/capacity changes bump the generation and drop the ring list;
   stale rings are recreated lazily on the next record.

   Storage is copy-in: every field of a recorded entry is copied into a
   preallocated fixed-width byte slot — timestamps as two little-endian
   int64s at the head, then length-prefixed strings and as many detail
   pairs as fit.  Nothing the caller allocated is retained, so a busy
   service does not promote per-request garbage to the major heap just
   because the recorder is on, and a record touches exactly the two
   consecutive cache lines of its slot (the arena is written as one
   sequential stream, which the hardware prefetcher hides).  The
   recorder's memory is fixed at [capacity * slot_bytes] bytes per
   domain, allocated once.  A reader decoding another domain's ring
   mid-write can see a torn slot; lengths are clamped to the slot, so
   decoding never fails, it just yields a mangled entry (the documented
   best-effort trade). *)

let slot_bytes = 128

(* slot layout: [0..7] t_ns LE, [8..15] dur_ns LE, then length-prefixed
   kind, scope, name, req, a detail-pair count byte, and the pairs *)

type ring = {
  tid : int;
  gen : int;
  cap : int;
  data : Bytes.t;  (* cap * slot_bytes *)
  mutable cursor : int;  (* next write position *)
  mutable total : int;  (* entries ever written through this ring *)
}

let on = Atomic.make false
let capacity = Atomic.make 256
let generation = Atomic.make 0
let rings : ring list Atomic.t = Atomic.make []

let enabled () = Atomic.get on

let enable ?capacity:cap () =
  (match cap with
  | None -> ()
  | Some c ->
      if c < 1 then invalid_arg "Obs.Flight.enable: capacity must be >= 1";
      if c <> Atomic.get capacity then begin
        Atomic.set capacity c;
        Atomic.incr generation;
        Atomic.set rings []
      end);
  Atomic.set on true

let disable () = Atomic.set on false

let clear () =
  Atomic.incr generation;
  Atomic.set rings []

let ring_key : ring option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let my_ring () =
  let cell = Domain.DLS.get ring_key in
  match !cell with
  | Some r when r.gen = Atomic.get generation -> r
  | _ ->
      let cap = Atomic.get capacity in
      let r =
        {
          tid = (Domain.self () :> int);
          gen = Atomic.get generation;
          cap;
          data = Bytes.create (cap * slot_bytes);
          cursor = 0;
          total = 0;
        }
      in
      cell := Some r;
      let rec register () =
        let seen = Atomic.get rings in
        if not (Atomic.compare_and_set rings seen (r :: seen)) then
          register ()
      in
      register ();
      r

(* Unchecked word access — the compiler primitives, not C calls.  Every
   use below is bounds-safe by construction; see the comments at the
   use sites. *)
external get64u : string -> int -> int64 = "%caml_string_get64u"
external set64u : bytes -> int -> int64 -> unit = "%caml_bytes_set64u"

(* Copy [n] bytes of [s] to [data] at [dpos], a word at a time —
   ceil(n/8) unboxed 8-byte moves instead of a C blit call or a byte
   loop.  Reading the last partial word of [s] never faults: an OCaml
   string of length n occupies ceil((n+1)/8) words, so the word
   containing any byte < n is allocated.  The write may spill up to 7
   bytes past [dpos + n]; callers guarantee the spill lands inside the
   slot's pad (below). *)
let rec copy_words s spos data dpos n =
  if spos < n then begin
    set64u data dpos (get64u s spos);
    copy_words s (spos + 8) data (dpos + 8) n
  end

(* Length-prefixed string at [pos], truncated to the slot: one length
   byte then the bytes; returns the next position.  [limit] is the slot
   end minus the 8-byte spill pad, so [room] <= slot_bytes - 9 < 255
   and the length always fits its byte.  Loop-free so Closure inlines
   it into [record]. *)
let[@inline always] put_str data pos ~limit s =
  let room = limit - pos - 1 in
  if room >= 1 then begin
    let n = String.length s in
    let n = if n > room then room else n in
    Bytes.unsafe_set data pos (Char.unsafe_chr n);
    copy_words s 0 data (pos + 1) n;
    pos + 1 + n
  end
  else begin
    if room = 0 then Bytes.unsafe_set data pos '\000';
    limit
  end

let rec put_pairs data pos ~limit pairs written =
  match pairs with
  | [] -> written
  | (k, v) :: rest ->
      if limit - pos >= 4 then
        let pos = put_str data pos ~limit k in
        let pos = put_str data pos ~limit v in
        put_pairs data pos ~limit rest (written + 1)
      else written

let get_str data pos ~limit =
  if limit - !pos < 1 then ""
  else begin
    let n = min (Char.code (Bytes.get data !pos)) (limit - !pos - 1) in
    let s = Bytes.sub_string data (!pos + 1) n in
    pos := !pos + 1 + n;
    s
  end

let record e =
  if Atomic.get on then begin
    let r = my_ring () in
    let slot = r.cursor in
    let base = slot * slot_bytes in
    (* [base + 16 .. limit) holds the strings; [limit .. base +
       slot_bytes) is the spill pad for [copy_words], so every write
       stays inside this slot of [r.data]. *)
    let limit = base + slot_bytes - 8 in
    set64u r.data base e.t_ns;
    set64u r.data (base + 8) e.dur_ns;
    let pos = put_str r.data (base + 16) ~limit e.kind in
    let pos = put_str r.data pos ~limit e.scope in
    let pos = put_str r.data pos ~limit e.name in
    let pos = put_str r.data pos ~limit e.req in
    (* detail count byte, then as many pairs as fit *)
    if limit - pos >= 1 then begin
      let written = put_pairs r.data (pos + 1) ~limit e.detail 0 in
      Bytes.unsafe_set r.data pos (Char.unsafe_chr written)
    end;
    r.cursor <- (if slot + 1 = r.cap then 0 else slot + 1);
    r.total <- r.total + 1
  end

let decode_slot r slot =
  let base = slot * slot_bytes in
  let limit = base + slot_bytes - 8 in
  let t_ns = Bytes.get_int64_le r.data base in
  let dur_ns = Bytes.get_int64_le r.data (base + 8) in
  let pos = ref (base + 16) in
  let kind = get_str r.data pos ~limit in
  let scope = get_str r.data pos ~limit in
  let name = get_str r.data pos ~limit in
  let req = get_str r.data pos ~limit in
  let detail =
    if limit - !pos < 1 then []
    else begin
      let n = Char.code (Bytes.get r.data !pos) in
      incr pos;
      List.init n (fun _ ->
          let k = get_str r.data pos ~limit in
          let v = get_str r.data pos ~limit in
          (k, v))
    end
  in
  { kind; scope; name; req; tid = r.tid; t_ns; dur_ns; detail }

(* Oldest → newest; once the ring has wrapped, the cursor points at the
   oldest surviving slot. *)
let ring_entries r =
  let start = if r.total >= r.cap then r.cursor else 0 in
  let n = min r.total r.cap in
  List.init n (fun i -> decode_slot r ((start + i) mod r.cap))

let entries ?req () =
  let all = List.concat_map ring_entries (Atomic.get rings) in
  let all =
    match req with
    | None -> all
    | Some id -> List.filter (fun e -> e.req = id) all
  in
  List.stable_sort
    (fun (a : entry) (b : entry) -> Int64.compare a.t_ns b.t_ns)
    all

(* ---- JSONL ----------------------------------------------------------- *)

let to_jsonl es =
  let t0 =
    List.fold_left
      (fun acc (e : entry) ->
        match acc with None -> Some e.t_ns | Some v -> Some (min v e.t_ns))
      None es
    |> Option.value ~default:0L
  in
  let buf = Buffer.create 1024 in
  List.iter
    (fun e ->
      Printf.bprintf buf "{\"kind\": ";
      Jsonw.escape buf e.kind;
      Printf.bprintf buf ", \"t_us\": %.3f, \"dur_us\": %.3f, \"tid\": %d"
        (Int64.to_float (Int64.sub e.t_ns t0) /. 1e3)
        (Int64.to_float e.dur_ns /. 1e3)
        e.tid;
      Buffer.add_string buf ", \"req\": ";
      Jsonw.escape buf e.req;
      Buffer.add_string buf ", \"scope\": ";
      Jsonw.escape buf e.scope;
      Buffer.add_string buf ", \"name\": ";
      Jsonw.escape buf e.name;
      Buffer.add_string buf ", \"detail\": {";
      List.iteri
        (fun k (key, v) ->
          if k > 0 then Buffer.add_string buf ", ";
          Jsonw.escape buf key;
          Buffer.add_string buf ": ";
          Jsonw.escape buf v)
        e.detail;
      Buffer.add_string buf "}}\n")
    es;
  Buffer.contents buf
