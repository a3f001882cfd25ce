(* Append-only, checksummed, per-shard payload logs.  See store.mli for
   the record layout and recovery rules. *)

let hits = Obs.Counter.make "svc.store.hits"
let misses = Obs.Counter.make "svc.store.misses"
let appends = Obs.Counter.make "svc.store.appends"
let flushes = Obs.Counter.make "svc.store.flushes"
let recovered_c = Obs.Counter.make "svc.store.recovered"
let truncated_c = Obs.Counter.make "svc.store.truncated_bytes"

let magic = "RPS1"
let header_len = 4 + 4 + 4 + 16

(* Keys are 32-hex digests, but accept anything short; payloads are
   serialized reports — cap both so a corrupt length field can never ask
   recovery to allocate gigabytes. *)
let max_key_len = 4096
let max_payload_len = 256 * 1024 * 1024

type loc =
  | Mem of string  (* pending, not yet appended *)
  | Disk of { off : int; len : int }  (* payload bytes within the log *)

type shard = {
  m : Mutex.t;
  fd : Unix.file_descr;
  tbl : (Key.t, loc) Hashtbl.t;
  buf : Buffer.t;  (* pending records, in append order *)
  mutable pending : (Key.t * int * int) list;
      (* (key, payload offset within [buf], payload len), newest first *)
  mutable len : int;  (* valid bytes on disk (recovery-truncated) *)
}

type recovery = { recovered : int; truncated_bytes : int }

type t = {
  dir : string;
  flush_every : int;
  shards : shard array;
  rec_info : recovery;
  mutable closed : bool;
}

let dir t = t.dir
let recovery t = t.rec_info

(* ---- binary helpers --------------------------------------------------- *)

let put_u32 b v =
  Buffer.add_char b (Char.chr (v land 0xff));
  Buffer.add_char b (Char.chr ((v lsr 8) land 0xff));
  Buffer.add_char b (Char.chr ((v lsr 16) land 0xff));
  Buffer.add_char b (Char.chr ((v lsr 24) land 0xff))

let get_u32 s off =
  Char.code s.[off]
  lor (Char.code s.[off + 1] lsl 8)
  lor (Char.code s.[off + 2] lsl 16)
  lor (Char.code s.[off + 3] lsl 24)

let digest_of ~key ~payload =
  Numeric.Digest.(
    seed
    |> Fun.flip add_int (String.length key)
    |> Fun.flip add_string key
    |> Fun.flip add_int (String.length payload)
    |> Fun.flip add_string payload)

let put_digest b (d : Numeric.Digest.t) =
  let add64 v =
    for i = 0 to 7 do
      Buffer.add_char b
        (Char.chr (Int64.to_int (Int64.shift_right_logical v (8 * i)) land 0xff))
    done
  in
  add64 d.Numeric.Digest.a;
  add64 d.Numeric.Digest.b

let get_digest s off =
  let get64 off =
    let v = ref 0L in
    for i = 7 downto 0 do
      v := Int64.logor (Int64.shift_left !v 8)
             (Int64.of_int (Char.code s.[off + i]))
    done;
    !v
  in
  { Numeric.Digest.a = get64 off; b = get64 (off + 8) }

let encode_record b key payload =
  Buffer.add_string b magic;
  put_u32 b (String.length key);
  put_u32 b (String.length payload);
  put_digest b (digest_of ~key ~payload);
  Buffer.add_string b key;
  Buffer.add_string b payload

(* ---- fd helpers (under the shard mutex) ------------------------------- *)

let really_read fd bytes off len =
  let got = ref 0 in
  (try
     while !got < len do
       let n = Unix.read fd bytes (off + !got) (len - !got) in
       if n = 0 then raise Exit;
       got := !got + n
     done
   with Exit -> ());
  !got

let really_write fd s =
  let b = Bytes.of_string s in
  let len = Bytes.length b in
  let sent = ref 0 in
  while !sent < len do
    sent := !sent + Unix.write fd b !sent (len - !sent)
  done

(* ---- recovery --------------------------------------------------------- *)

(* Scan one shard log from the front, accepting checksummed records until
   the first violation; returns (entries, valid_len, records, bad_bytes).
   The caller truncates the file to [valid_len]. *)
let scan_shard fd file_len tbl =
  let pos = ref 0 in
  let records = ref 0 in
  let hdr = Bytes.create header_len in
  (try
     while !pos + header_len <= file_len do
       ignore (Unix.lseek fd !pos Unix.SEEK_SET);
       if really_read fd hdr 0 header_len <> header_len then raise Exit;
       let h = Bytes.to_string hdr in
       if String.sub h 0 4 <> magic then raise Exit;
       let key_len = get_u32 h 4 and payload_len = get_u32 h 8 in
       if
         key_len <= 0 || key_len > max_key_len || payload_len < 0
         || payload_len > max_payload_len
       then raise Exit;
       let body_len = key_len + payload_len in
       if !pos + header_len + body_len > file_len then raise Exit;
       let body = Bytes.create body_len in
       if really_read fd body 0 body_len <> body_len then raise Exit;
       let key = Bytes.sub_string body 0 key_len in
       let payload = Bytes.sub_string body key_len payload_len in
       if
         not
           (Numeric.Digest.equal (get_digest h 12) (digest_of ~key ~payload))
       then raise Exit;
       (* last record for a key wins *)
       Hashtbl.replace tbl (Key.of_hex key)
         (Disk { off = !pos + header_len + key_len; len = payload_len });
       incr records;
       pos := !pos + header_len + body_len
     done
   with Exit -> ());
  (!pos, !records)

let shard_path dir i = Filename.concat dir (Printf.sprintf "shard-%02d.log" i)

let open_dir ?(shards = 8) ?(flush_every = 32) dir =
  let shards = max 1 shards in
  let flush_every = max 1 flush_every in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let recovered = ref 0 and truncated = ref 0 in
  let arr =
    Array.init shards (fun i ->
        let path = shard_path dir i in
        let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT ] 0o644 in
        let file_len = (Unix.fstat fd).Unix.st_size in
        let tbl = Hashtbl.create 64 in
        let valid_len, records = scan_shard fd file_len tbl in
        if valid_len < file_len then begin
          Unix.ftruncate fd valid_len;
          truncated := !truncated + (file_len - valid_len)
        end;
        recovered := !recovered + records;
        {
          m = Mutex.create ();
          fd;
          tbl;
          buf = Buffer.create 4096;
          pending = [];
          len = valid_len;
        })
  in
  Obs.Counter.add recovered_c !recovered;
  Obs.Counter.add truncated_c !truncated;
  {
    dir;
    flush_every;
    shards = arr;
    rec_info = { recovered = !recovered; truncated_bytes = !truncated };
    closed = false;
  }

(* ---- operations -------------------------------------------------------- *)

let shard_of t k = t.shards.(Key.hash k mod Array.length t.shards)

let locked sh f =
  Mutex.lock sh.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock sh.m) f

let check_open t = if t.closed then invalid_arg "Svc.Store: closed"

(* Append the pending buffer; caller holds the shard mutex. *)
let flush_shard sh =
  if Buffer.length sh.buf > 0 then begin
    ignore (Unix.lseek sh.fd sh.len Unix.SEEK_SET);
    really_write sh.fd (Buffer.contents sh.buf);
    (* Pending Mem entries become Disk entries at their absolute offsets
       — unless a later add already superseded them in the table. *)
    List.iter
      (fun (key, rel_off, len) ->
        match Hashtbl.find_opt sh.tbl key with
        | Some (Mem _) when rel_off + len <= Buffer.length sh.buf ->
            (* the newest pending record for this key is the one whose
               offset we recorded last; [pending] is newest-first, so
               only rewrite if the table still holds a Mem entry and
               this is its first (= newest) occurrence *)
            Hashtbl.replace sh.tbl key (Disk { off = sh.len + rel_off; len })
        | _ -> ())
      sh.pending;
    sh.len <- sh.len + Buffer.length sh.buf;
    Buffer.clear sh.buf;
    sh.pending <- [];
    Obs.Counter.incr flushes
  end

let add t k payload =
  check_open t;
  let sh = shard_of t k in
  let key_bytes = Key.to_string k in
  locked sh (fun () ->
      let rel_off =
        Buffer.length sh.buf + header_len + String.length key_bytes
      in
      encode_record sh.buf key_bytes payload;
      sh.pending <- (k, rel_off, String.length payload) :: sh.pending;
      Hashtbl.replace sh.tbl k (Mem payload);
      Obs.Counter.incr appends;
      if List.length sh.pending >= t.flush_every then flush_shard sh)

(* A payload [usable] rejects is counted as a miss, like an absent
   one: the caller recomputes it and its [add] rewrites the record. *)
let find t ~usable k =
  check_open t;
  let sh = shard_of t k in
  let found =
    locked sh (fun () ->
        match Hashtbl.find_opt sh.tbl k with
        | None -> None
        | Some (Mem s) -> Some s
        | Some (Disk { off; len }) ->
            ignore (Unix.lseek sh.fd off Unix.SEEK_SET);
            let b = Bytes.create len in
            (* an unreadable tail (should be impossible after recovery)
               is a miss rather than a crashed request *)
            if really_read sh.fd b 0 len = len then Some (Bytes.to_string b)
            else None)
  in
  match found with
  | Some v when usable v ->
      Obs.Counter.incr hits;
      found
  | Some _ | None ->
      Obs.Counter.incr misses;
      None

let flush t =
  check_open t;
  Array.iter (fun sh -> locked sh (fun () -> flush_shard sh)) t.shards

let entries t =
  check_open t;
  Array.fold_left
    (fun acc sh -> acc + locked sh (fun () -> Hashtbl.length sh.tbl))
    0 t.shards

let close t =
  if not t.closed then begin
    Array.iter
      (fun sh ->
        locked sh (fun () ->
            flush_shard sh;
            (try Unix.fsync sh.fd with Unix.Unix_error _ -> ());
            Unix.close sh.fd))
      t.shards;
    t.closed <- true
  end
