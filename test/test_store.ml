(* Tests for the durable content-addressed store: append/find round
   trips, write-behind visibility, reopen recovery (index rebuilt from
   the shard logs), torn-tail truncation, checksum rejection,
   last-record-wins, and the service-level disk-warm path — a fresh
   service on the same store directory answers from disk without
   recomputing. *)

module Store = Svc.Store
module Key = Svc.Key
module Proto = Svc.Proto
module Service = Svc.Service

let temp_dir =
  let n = ref 0 in
  fun prefix ->
    incr n;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "%s-%d-%d" prefix (Unix.getpid ()) !n)
    in
    Unix.mkdir d 0o700;
    d

let key i = Key.of_hex (Printf.sprintf "%032x" i)

(* Every payload is usable: these cases read the raw records. *)
let any _ = true

(* ------------------------------------------------------------------ *)
(* basic operation                                                      *)

let test_roundtrip () =
  let dir = temp_dir "store-rt" in
  let s = Store.open_dir ~shards:4 ~flush_every:2 dir in
  Store.add s (key 1) "alpha";
  Store.add s (key 2) "beta";
  Store.add s (key 3) "";
  (* write-behind: visible before any flush *)
  Alcotest.(check (option string)) "mem-tier read" (Some "alpha")
    (Store.find ~usable:any s (key 1));
  Alcotest.(check (option string)) "second key" (Some "beta")
    (Store.find ~usable:any s (key 2));
  Alcotest.(check (option string)) "missing key" None
    (Store.find ~usable:any s (key 9));
  Store.flush s;
  Alcotest.(check (option string)) "disk-tier read" (Some "alpha")
    (Store.find ~usable:any s (key 1));
  Alcotest.(check (option string)) "empty payload ok" (Some "")
    (Store.find ~usable:any s (key 3));
  Alcotest.(check int) "entries" 3 (Store.entries s);
  Store.close s

let test_reopen_recovers () =
  let dir = temp_dir "store-reopen" in
  let s = Store.open_dir ~shards:4 dir in
  for i = 1 to 20 do
    Store.add s (key i) (Printf.sprintf "payload-%d" i)
  done;
  Store.close s;
  let s2 = Store.open_dir ~shards:4 dir in
  Alcotest.(check int) "all records recovered" 20
    (Store.recovery s2).Store.recovered;
  Alcotest.(check int) "no torn tail" 0
    (Store.recovery s2).Store.truncated_bytes;
  Alcotest.(check int) "entries" 20 (Store.entries s2);
  for i = 1 to 20 do
    Alcotest.(check (option string))
      (Printf.sprintf "key %d" i)
      (Some (Printf.sprintf "payload-%d" i))
      (Store.find ~usable:any s2 (key i))
  done;
  Store.close s2

let test_last_record_wins () =
  let dir = temp_dir "store-lww" in
  let s = Store.open_dir ~shards:2 dir in
  Store.add s (key 7) "first";
  Store.flush s;
  Store.add s (key 7) "second";
  Store.close s;
  let s2 = Store.open_dir ~shards:2 dir in
  Alcotest.(check (option string)) "newest record wins" (Some "second")
    (Store.find ~usable:any s2 (key 7));
  Store.close s2

(* ------------------------------------------------------------------ *)
(* crash recovery                                                       *)

let data_shards dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter_map (fun f ->
         let p = Filename.concat dir f in
         if Filename.check_suffix f ".log" && (Unix.stat p).Unix.st_size > 0
         then Some p
         else None)

let append_bytes path bytes =
  let oc = open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 path in
  output_string oc bytes;
  close_out oc

let test_torn_tail_truncated () =
  let dir = temp_dir "store-torn" in
  let s = Store.open_dir ~shards:1 dir in
  Store.add s (key 1) "kept-1";
  Store.add s (key 2) "kept-2";
  Store.close s;
  let shard = List.hd (data_shards dir) in
  let before = (Unix.stat shard).Unix.st_size in
  (* a crash mid-append: a header that promises more bytes than exist *)
  append_bytes shard "RPS1\x10\x00\x00\x00\xff\xff";
  let s2 = Store.open_dir ~shards:1 dir in
  Alcotest.(check int) "intact records survive" 2
    (Store.recovery s2).Store.recovered;
  Alcotest.(check int) "torn bytes truncated" 10
    (Store.recovery s2).Store.truncated_bytes;
  Alcotest.(check (option string)) "record before the tear" (Some "kept-2")
    (Store.find ~usable:any s2 (key 2));
  Store.close s2;
  Alcotest.(check int) "file back to its pre-crash length" before
    (Unix.stat shard).Unix.st_size;
  (* and the truncated log keeps accepting appends *)
  let s3 = Store.open_dir ~shards:1 dir in
  Store.add s3 (key 3) "after-recovery";
  Store.close s3;
  let s4 = Store.open_dir ~shards:1 dir in
  Alcotest.(check int) "append after recovery persisted" 3
    (Store.recovery s4).Store.recovered;
  Store.close s4

let test_corrupt_record_rejected () =
  let dir = temp_dir "store-corrupt" in
  let s = Store.open_dir ~shards:1 dir in
  Store.add s (key 1) "good-record";
  Store.flush s;
  let shard = List.hd (data_shards dir) in
  let keep = (Unix.stat shard).Unix.st_size in
  Store.add s (key 2) "will-be-corrupted";
  Store.close s;
  (* flip one payload byte of the second record: its digest no longer
     matches, so recovery must drop it (and everything after) *)
  let fd = Unix.openfile shard [ Unix.O_WRONLY ] 0 in
  ignore (Unix.lseek fd ((Unix.fstat fd).Unix.st_size - 1) Unix.SEEK_SET);
  ignore (Unix.write fd (Bytes.of_string "X") 0 1);
  Unix.close fd;
  let s2 = Store.open_dir ~shards:1 dir in
  Alcotest.(check int) "only the intact record survives" 1
    (Store.recovery s2).Store.recovered;
  Alcotest.(check bool) "torn bytes reported" true
    ((Store.recovery s2).Store.truncated_bytes > 0);
  Alcotest.(check (option string)) "intact record readable"
    (Some "good-record")
    (Store.find ~usable:any s2 (key 1));
  Alcotest.(check (option string)) "corrupt record gone" None
    (Store.find ~usable:any s2 (key 2));
  Store.close s2;
  Alcotest.(check int) "file truncated to the last valid record" keep
    (Unix.stat shard).Unix.st_size

(* Four records in a one-shard log, cut and flipped at every byte. *)
let records =
  [
    (key 1, "alpha");
    (key 2, "");
    (key 3, "bytes \x00 and \xff and \n inside");
    (key 4, String.make 70 'z');
  ]

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path bytes =
  Out_channel.with_open_bin path (fun oc -> output_string oc bytes)

(* Each record's key, payload and end offset, read from the layout
   store.mli documents: a 28-byte header with the key and payload
   lengths at bytes 4 and 8, then the key and payload bytes. *)
let parse_log log =
  let u32 o =
    Char.code log.[o]
    lor (Char.code log.[o + 1] lsl 8)
    lor (Char.code log.[o + 2] lsl 16)
    lor (Char.code log.[o + 3] lsl 24)
  in
  let rec go pos acc =
    if pos >= String.length log then List.rev acc
    else
      let kl = u32 (pos + 4) and pl = u32 (pos + 8) in
      let e = pos + 28 + kl + pl in
      go e
        ((String.sub log (pos + 28) kl, String.sub log (pos + 28 + kl) pl, e)
        :: acc)
  in
  go 0 []

let record_ends log = List.map (fun (_, _, e) -> e) (parse_log log)

let written_log () =
  let dir = temp_dir "store-log" in
  let s = Store.open_dir ~shards:1 dir in
  List.iter (fun (k, p) -> Store.add s k p) records;
  Store.close s;
  let log = read_file (List.hd (data_shards dir)) in
  let ends = record_ends log in
  Alcotest.(check int) "one record per add" (List.length records)
    (List.length ends);
  Alcotest.(check int) "the records fill the log" (String.length log)
    (List.nth ends (List.length ends - 1));
  (log, ends)

(* Reopen [bytes] as a one-shard log in [dir]: the first [kept] records
   come back byte for byte, no later one comes back, and the bytes after
   the last kept record are reported truncated and cut from the file. *)
let recovers label dir bytes ~ends ~kept =
  let path = Filename.concat dir "shard-00.log" in
  write_file path bytes;
  let s = Store.open_dir ~shards:1 dir in
  let valid = if kept = 0 then 0 else List.nth ends (kept - 1) in
  Alcotest.(check int) (label ^ ": recovered") kept
    (Store.recovery s).Store.recovered;
  Alcotest.(check int)
    (label ^ ": truncated bytes")
    (String.length bytes - valid)
    (Store.recovery s).Store.truncated_bytes;
  List.iteri
    (fun i (k, p) ->
      Alcotest.(check (option string))
        (Printf.sprintf "%s: record %d" label i)
        (if i < kept then Some p else None)
        (Store.find ~usable:any s k))
    records;
  s

(* The same damage to one shard of a 4-shard store whose records repeat
   keys: eight keys, five of them written again, three a third time. *)
let repeated_records =
  List.map
    (fun (i, p) -> (key i, p))
    [
      (1, "a1"); (2, "b1"); (3, "c1"); (4, ""); (5, "e1"); (6, "f1");
      (7, "g1"); (8, "h1"); (1, "a2"); (3, String.make 40 'c');
      (5, "e2 \x00\xff\n"); (2, "b2"); (1, "a3"); (6, "f2"); (3, "c3");
    ]

(* Each shard's file name and bytes, written by a 4-shard store. *)
let written_shards () =
  let dir = temp_dir "store-shards" in
  let s = Store.open_dir ~shards:4 dir in
  List.iter (fun (k, p) -> Store.add s k p) repeated_records;
  Store.close s;
  let logs =
    List.map (fun p -> (Filename.basename p, read_file p)) (data_shards dir)
  in
  Alcotest.(check int) "one record per add" (List.length repeated_records)
    (List.fold_left (fun n (_, log) -> n + List.length (parse_log log)) 0 logs);
  Alcotest.(check bool) "the keys span several shards" true
    (List.length logs > 1);
  let repeats log =
    let ks = List.map (fun (k, _, _) -> k) (parse_log log) in
    List.length ks - List.length (List.sort_uniq compare ks)
  in
  Alcotest.(check bool) "every shard repeats a key" true
    (List.for_all (fun (_, log) -> repeats log > 0) logs);
  logs

(* Write [logs] into [dir] with shard [name]'s bytes replaced by
   [bytes], reopen, and check every key: one of shard [name] reads its
   last record among the first [kept] of that shard or nothing, one of
   another shard its last record.  Then a new record for one of [name]'s
   keys must land, and survive a reopen. *)
let recovers_shards label dir logs ~name bytes ~kept =
  List.iter
    (fun (n, log) ->
      write_file (Filename.concat dir n) (if n = name then bytes else log))
    logs;
  let check s ~appended =
    List.iter
      (fun (n, log) ->
        let recs = parse_log log in
        let live =
          if n = name then List.filteri (fun i _ -> i < kept) recs else recs
        in
        List.iter
          (fun (k, _, _) ->
            let want =
              match appended with
              | Some (k', p) when k' = k -> Some p
              | _ ->
                  List.fold_left
                    (fun acc (k', p, _) -> if k' = k then Some p else acc)
                    None live
            in
            Alcotest.(check (option string))
              (Printf.sprintf "%s: %s key %s" label n k)
              want
              (Store.find ~usable:any s (Key.of_hex k)))
          recs)
      logs
  in
  let s = Store.open_dir ~shards:4 dir in
  check s ~appended:None;
  let k, _, _ = List.hd (parse_log (List.assoc name logs)) in
  Store.add s (Key.of_hex k) "after-damage";
  Store.close s;
  let s = Store.open_dir ~shards:4 dir in
  Alcotest.(check int) (label ^ ": no torn tail after the append") 0
    (Store.recovery s).Store.truncated_bytes;
  check s ~appended:(Some (k, "after-damage"));
  Store.close s

let damage_every_shard damage =
  let logs = written_shards () in
  let dir = temp_dir "store-shard-damage" in
  List.iter
    (fun (name, log) ->
      let ends = record_ends log in
      damage log (fun label bytes ~at ->
          let kept = List.length (List.filter (fun e -> e <= at) ends) in
          recovers_shards (name ^ " " ^ label) dir logs ~name bytes ~kept))
    logs

let test_cut_at_every_byte () =
  damage_every_shard (fun log recover ->
      for cut = 0 to String.length log do
        recover (Printf.sprintf "cut at %d" cut) (String.sub log 0 cut) ~at:cut
      done);
  let log, ends = written_log () in
  let dir = temp_dir "store-cut" in
  for cut = 0 to String.length log do
    let label = Printf.sprintf "cut at %d" cut in
    let kept = List.length (List.filter (fun e -> e <= cut) ends) in
    let s = recovers label dir (String.sub log 0 cut) ~ends ~kept in
    (* the recovered log keeps accepting appends *)
    Store.add s (key 9) "after-recovery";
    Store.close s;
    let s = Store.open_dir ~shards:1 dir in
    Alcotest.(check int) (label ^ ": append persisted") (kept + 1)
      (Store.recovery s).Store.recovered;
    Alcotest.(check int) (label ^ ": no torn tail after the append") 0
      (Store.recovery s).Store.truncated_bytes;
    Alcotest.(check (option string))
      (label ^ ": appended record")
      (Some "after-recovery")
      (Store.find ~usable:any s (key 9));
    Store.close s
  done

let test_flip_at_every_byte () =
  damage_every_shard (fun log recover ->
      String.iteri
        (fun at c ->
          let bytes = Bytes.of_string log in
          Bytes.set bytes at (Char.chr (Char.code c lxor 0xff));
          recover (Printf.sprintf "flip at %d" at) (Bytes.to_string bytes) ~at)
        log);
  let log, ends = written_log () in
  let dir = temp_dir "store-flip" in
  String.iteri
    (fun at c ->
      let bytes = Bytes.of_string log in
      Bytes.set bytes at (Char.chr (Char.code c lxor 0xff));
      let kept = List.length (List.filter (fun e -> e <= at) ends) in
      Store.close
        (recovers
           (Printf.sprintf "flip at %d" at)
           dir (Bytes.to_string bytes) ~ends ~kept))
    log

(* ------------------------------------------------------------------ *)
(* service-level disk warmth                                            *)

let counter name =
  match List.assoc_opt name (Obs.Metrics.snapshot ()).Obs.Metrics.counters with
  | Some v -> v
  | None -> 0

let request () =
  Proto.request ~params:[ ("n", 24) ] ~id:"r1" ~name:"warm"
    (Proto.Src "DO i = 1, n\n  A(i) = A(i-1) + 1\nENDDO\n")

let service_config dir =
  {
    Service.default_config with
    domains = 1;
    threads = 1;
    check = false;
    store_dir = Some dir;
  }

let test_disk_warm_short_circuit () =
  let dir = temp_dir "store-svc" in
  (* first process: compute, persist *)
  let svc = Service.create ~config:(service_config dir) () in
  let r1 = Service.run_one svc (request ()) in
  Alcotest.(check bool) "first run ok" true (Proto.ok r1);
  Alcotest.(check bool) "first run computed" false r1.Proto.cached;
  Service.shutdown svc;
  (* "restarted process": a fresh service, cold memory cache, same dir *)
  let hits0 = counter "svc.store.hits" in
  let svc2 = Service.create ~config:(service_config dir) () in
  let r2 = Service.run_one svc2 (request ()) in
  Alcotest.(check bool) "disk-warm run ok" true (Proto.ok r2);
  Alcotest.(check bool) "disk-warm run answered from the store" true
    r2.Proto.cached;
  Alcotest.(check bool) "store hit counter advanced" true
    (counter "svc.store.hits" > hits0);
  (* promotion: the second lookup is a memory hit, not a second store
     read *)
  let hits1 = counter "svc.store.hits" in
  let r3 = Service.run_one svc2 (request ()) in
  Alcotest.(check bool) "promoted to memory" true r3.Proto.cached;
  Alcotest.(check int) "no second store read" hits1
    (counter "svc.store.hits");
  Service.shutdown svc2

(* A record behind another payload tag (an older build's reply format)
   must be recomputed, never replayed, and rewritten: the start after
   the recompute answers from disk again. *)
let test_foreign_tag_is_a_miss () =
  let dir = temp_dir "store-tag" in
  let svc = Service.create ~config:(service_config dir) () in
  Alcotest.(check bool) "first run ok" true
    (Proto.ok (Service.run_one svc (request ())));
  Service.shutdown svc;
  (* The key the service files this run request under. *)
  let req = request () in
  let prog =
    match req.Proto.source with
    | Proto.Src src -> Loopir.Parser.parse ~name:req.Proto.name src
    | Proto.Prog p -> p
  in
  let key =
    Key.of_request
      ~extra:
        [ "mode=run"; "threads=1"; "check=false"; "measure=false"; "survey=false" ]
      ~params:req.Proto.params prog
  in
  let with_record f =
    let s = Store.open_dir dir in
    Fun.protect ~finally:(fun () -> Store.close s) (fun () ->
        match Store.find ~usable:any s key with
        | None -> Alcotest.fail "the run was not stored under its request key"
        | Some payload -> f s payload)
  in
  with_record (fun s payload ->
      (* The same bytes behind the previous reply format's tag: only the
         tag check may keep them out. *)
      let body = String.index payload ':' + 1 in
      Store.add s key
        ("rpb1:" ^ String.sub payload body (String.length payload - body)));
  let svc2 = Service.create ~config:(service_config dir) () in
  let hits0 = counter "svc.store.hits"
  and misses0 = counter "svc.store.misses" in
  let r2 = Service.run_one svc2 (request ()) in
  Alcotest.(check bool) "foreign-tag run ok" true (Proto.ok r2);
  Alcotest.(check bool) "foreign-tag record recomputed, not replayed" false
    r2.Proto.cached;
  (* The unreadable record is a store miss, not a hit that is then
     recomputed. *)
  Alcotest.(check int) "foreign-tag record is no store hit" hits0
    (counter "svc.store.hits");
  Alcotest.(check int) "foreign-tag record is one store miss" (misses0 + 1)
    (counter "svc.store.misses");
  Service.shutdown svc2;
  Alcotest.(check bool) "the recompute rewrote the record" true
    (with_record (fun _ payload -> Proto.readable payload));
  let hits1 = counter "svc.store.hits" in
  let svc3 = Service.create ~config:(service_config dir) () in
  let r3 = Service.run_one svc3 (request ()) in
  Service.shutdown svc3;
  Alcotest.(check bool) "rewritten run ok" true (Proto.ok r3);
  Alcotest.(check bool) "the next start answers from disk" true
    r3.Proto.cached;
  Alcotest.(check bool) "store hit counter advanced" true
    (counter "svc.store.hits" > hits1)

let test_garbage_store_file_is_empty () =
  let dir = temp_dir "store-garbage" in
  let path = Filename.concat dir "shard-00.log" in
  append_bytes path "this is not a store file at all\n";
  let s = Store.open_dir ~shards:1 dir in
  Alcotest.(check int) "nothing recovered" 0 (Store.recovery s).Store.recovered;
  Alcotest.(check bool) "garbage truncated" true
    ((Store.recovery s).Store.truncated_bytes > 0);
  Alcotest.(check int) "store usable and empty" 0 (Store.entries s);
  Store.add s (key 1) "fresh";
  Store.close s;
  let s2 = Store.open_dir ~shards:1 dir in
  Alcotest.(check (option string)) "fresh record persisted" (Some "fresh")
    (Store.find ~usable:any s2 (key 1));
  Store.close s2

let () =
  Alcotest.run "store"
    [
      ( "basic",
        [
          Alcotest.test_case "add/find/mem round trip" `Quick test_roundtrip;
          Alcotest.test_case "reopen rebuilds the index" `Quick
            test_reopen_recovers;
          Alcotest.test_case "last record wins" `Quick test_last_record_wins;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "torn tail truncated" `Quick
            test_torn_tail_truncated;
          Alcotest.test_case "checksum rejects corruption" `Quick
            test_corrupt_record_rejected;
          Alcotest.test_case "garbage file treated as empty" `Quick
            test_garbage_store_file_is_empty;
          Alcotest.test_case "log cut at every byte" `Quick
            test_cut_at_every_byte;
          Alcotest.test_case "byte flipped at every offset" `Quick
            test_flip_at_every_byte;
        ] );
      ( "service",
        [
          Alcotest.test_case "disk-warm hit skips recomputation" `Quick
            test_disk_warm_short_circuit;
          Alcotest.test_case "foreign value tag is recomputed" `Quick
            test_foreign_tag_is_a_miss;
        ] );
    ]
