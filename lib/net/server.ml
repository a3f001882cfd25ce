module Proto = Svc.Proto
module Service = Svc.Service

let conn_accepted = Obs.Counter.make "net.conn.accepted"
let conn_closed = Obs.Counter.make "net.conn.closed"
let conn_aborted = Obs.Counter.make "net.conn.aborted"
let conn_rejected = Obs.Counter.make "net.conn.rejected"
let conn_timeout = Obs.Counter.make "net.conn.timeout"
let req_received = Obs.Counter.make "net.req.received"
let resp_sent = Obs.Counter.make "net.resp.sent"
let shed = Obs.Counter.make "net.shed"
let frame_oversized = Obs.Counter.make "net.frame.oversized"
let req_drained = Obs.Counter.make "net.req.drained"

type config = {
  max_conns : int;
  max_line : int;
  idle_timeout_s : float;
  drain_timeout_s : float;
}

let default_config =
  {
    max_conns = 64;
    max_line = 1024 * 1024;
    idle_timeout_s = 300.0;
    drain_timeout_s = 10.0;
  }

type state = Running | Draining | Stopped

type conn = {
  c_fd : Unix.file_descr;
  c_m : Mutex.t;  (* write ordering + fd close *)
  mutable c_open : bool;  (* fd still writable (set false before close) *)
  mutable c_next_slot : int;  (* reader thread only *)
  mutable c_next_write : int;  (* under c_m *)
  c_pending : (int, string) Hashtbl.t;  (* rendered lines, under c_m *)
  mutable c_inflight : int;  (* under the server mutex *)
  mutable c_force : bool;  (* drain timeout hit: stop waiting, close *)
}

type t = {
  service : Service.t;
  config : config;
  listen_fd : Unix.file_descr;
  bound : Addr.t;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  m : Mutex.t;
  mutable state : state;
  mutable conns : conn list;
  mutable inflight : int;
  mutable accept_thread : Thread.t option;
  mutable conn_threads : Thread.t list;
}

let locked t f =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

let addr t = t.bound
let connections t = locked t (fun () -> List.length t.conns)
let inflight t = locked t (fun () -> t.inflight)

(* ---- response path ---------------------------------------------------- *)

(* Store one rendered response line at its slot, then flush every
   contiguously-ready line in request order.  Runs on worker domains and
   on reader threads; [c_m] serializes them.  A dead peer turns the
   flush into a silent drop — the EPIPE-class close is counted once. *)
let deliver conn slot line =
  Mutex.lock conn.c_m;
  Hashtbl.replace conn.c_pending slot line;
  while conn.c_open && Hashtbl.mem conn.c_pending conn.c_next_write do
    let l = Hashtbl.find conn.c_pending conn.c_next_write in
    Hashtbl.remove conn.c_pending conn.c_next_write;
    conn.c_next_write <- conn.c_next_write + 1;
    match Frame.write_line conn.c_fd l with
    | Ok () -> Obs.Counter.incr resp_sent
    | Error `Closed ->
        conn.c_open <- false;
        Obs.Counter.incr conn_aborted
  done;
  Mutex.unlock conn.c_m

let dec_inflight t conn =
  locked t (fun () ->
      conn.c_inflight <- conn.c_inflight - 1;
      t.inflight <- t.inflight - 1)

(* Every admitted line flows through here exactly once. *)
let complete t conn slot resp =
  deliver conn slot (Proto.response_to_line resp);
  dec_inflight t conn

(* ---- request path (reader thread) ------------------------------------- *)

let admit t conn =
  let slot = conn.c_next_slot in
  conn.c_next_slot <- slot + 1;
  locked t (fun () ->
      conn.c_inflight <- conn.c_inflight + 1;
      t.inflight <- t.inflight + 1);
  slot

let handle_line t conn line =
  Obs.Counter.incr req_received;
  let slot = admit t conn in
  match Proto.request_of_line line with
  | Error { Proto.line_id; message } ->
      complete t conn slot
        (Proto.error_response ?id:line_id (Proto.Bad_request message))
  | Ok req ->
      if locked t (fun () -> t.state <> Running) then begin
        Obs.Counter.incr req_drained;
        complete t conn slot
          (Proto.error_response ~id:req.Proto.id Proto.Draining)
      end
      else begin
        match
          Service.submit t.service req ~k:(fun resp ->
              complete t conn slot resp)
        with
        | Service.Accepted -> ()
        | Service.Shed { queue_depth; queue_capacity } ->
            Obs.Counter.incr shed;
            complete t conn slot
              (Proto.error_response ~id:req.Proto.id
                 (Proto.Overloaded { queue_depth; queue_capacity }))
      end

let handle_oversized t conn dropped =
  Obs.Counter.incr req_received;
  Obs.Counter.incr frame_oversized;
  let slot = admit t conn in
  complete t conn slot
    (Proto.error_response
       (Proto.Bad_request
          (Printf.sprintf
             "request line exceeds %d bytes (%d discarded); connection \
              stays open"
             t.config.max_line dropped)))

(* Reader-thread exit: wait for this connection's in-flight responses
   (abandoned on drain force-close), then close the fd — the only place
   it is ever closed, so worker-domain writes cannot race an fd reuse. *)
let close_conn t conn ~aborted =
  let rec wait_quiesce () =
    let busy =
      locked t (fun () -> conn.c_inflight > 0 && not conn.c_force)
    in
    if busy then begin
      Thread.delay 0.005;
      wait_quiesce ()
    end
  in
  wait_quiesce ();
  Mutex.lock conn.c_m;
  conn.c_open <- false;
  (try Unix.close conn.c_fd with Unix.Unix_error _ -> ());
  Mutex.unlock conn.c_m;
  locked t (fun () ->
      t.conns <- List.filter (fun c -> c != conn) t.conns);
  Obs.Counter.incr (if aborted then conn_aborted else conn_closed)

let rec conn_loop t conn reader =
  match Frame.next reader ~timeout_s:t.config.idle_timeout_s with
  | Frame.Line line ->
      handle_line t conn line;
      conn_loop t conn reader
  | Frame.Too_long dropped ->
      handle_oversized t conn dropped;
      conn_loop t conn reader
  | Frame.Eof -> close_conn t conn ~aborted:false
  | Frame.Idle_timeout | Frame.Read_timeout ->
      Obs.Counter.incr conn_timeout;
      close_conn t conn ~aborted:false
  | Frame.Aborted -> close_conn t conn ~aborted:true

let conn_main t conn =
  let reader = Frame.reader ~max_line:t.config.max_line conn.c_fd in
  try conn_loop t conn reader
  with _ -> close_conn t conn ~aborted:true

(* ---- accept loop ------------------------------------------------------ *)

let reject t fd =
  Obs.Counter.incr conn_rejected;
  let resp =
    Proto.error_response
      (Proto.Overloaded
         {
           queue_depth = locked t (fun () -> List.length t.conns);
           queue_capacity = t.config.max_conns;
         })
  in
  ignore (Frame.write_line fd (Proto.response_to_line resp));
  try Unix.close fd with Unix.Unix_error _ -> ()

let accept_loop t =
  let rec loop () =
    let running = locked t (fun () -> t.state = Running) in
    if running then begin
      match Unix.select [ t.listen_fd; t.wake_r ] [] [] (-1.0) with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
      | exception Unix.Unix_error (Unix.EBADF, _, _) -> ()
      | rs, _, _ ->
          if List.mem t.wake_r rs then ()  (* drain poked the pipe *)
          else if List.mem t.listen_fd rs then begin
            (match Unix.accept t.listen_fd with
            | exception
                Unix.Unix_error
                  ((Unix.EINTR | Unix.ECONNABORTED | Unix.EAGAIN), _, _)
              ->
                ()
            | fd, _peer ->
                let admitted =
                  locked t (fun () ->
                      t.state = Running
                      && List.length t.conns < t.config.max_conns)
                in
                if not admitted then reject t fd
                else begin
                  let conn =
                    {
                      c_fd = fd;
                      c_m = Mutex.create ();
                      c_open = true;
                      c_next_slot = 0;
                      c_next_write = 0;
                      c_pending = Hashtbl.create 8;
                      c_inflight = 0;
                      c_force = false;
                    }
                  in
                  Obs.Counter.incr conn_accepted;
                  Obs.Event.emit ~severity:Obs.Event.Debug ~scope:"net"
                    ~name:"conn.accept" (fun () ->
                      [
                        ( "conns",
                          Obs.Event.Int
                            (locked t (fun () -> List.length t.conns) + 1)
                        );
                      ]);
                  let th = Thread.create (fun () -> conn_main t conn) () in
                  locked t (fun () ->
                      t.conns <- conn :: t.conns;
                      t.conn_threads <- th :: t.conn_threads)
                end);
            loop ()
          end
          else loop ()
    end
  in
  loop ();
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  match t.bound with
  | Addr.Unix_sock path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | Addr.Tcp _ -> ()

(* ---- lifecycle -------------------------------------------------------- *)

let listen_sock addr =
  let sa = Addr.to_sockaddr addr in
  let fd = Unix.socket (Addr.domain addr) Unix.SOCK_STREAM 0 in
  (match addr with
  | Addr.Tcp _ -> Unix.setsockopt fd Unix.SO_REUSEADDR true
  | Addr.Unix_sock path ->
      if Sys.file_exists path then (
        try Unix.unlink path with Unix.Unix_error _ -> ()));
  Unix.bind fd sa;
  Unix.listen fd 128;
  let bound =
    match addr with
    | Addr.Tcp { host; _ } -> (
        match Unix.getsockname fd with
        | Unix.ADDR_INET (_, port) -> Addr.Tcp { host; port }
        | _ -> addr)
    | a -> a
  in
  (fd, bound)

let start ?(config = default_config) service addr =
  (* EPIPE must arrive as an error code, never a signal: a client that
     disconnects mid-response is a per-connection event. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let listen_fd, bound = listen_sock addr in
  let wake_r, wake_w = Unix.pipe () in
  let t =
    {
      service;
      config;
      listen_fd;
      bound;
      wake_r;
      wake_w;
      m = Mutex.create ();
      state = Running;
      conns = [];
      inflight = 0;
      accept_thread = None;
      conn_threads = [];
    }
  in
  Service.register_gauges service (fun () ->
      locked t (fun () ->
          [
            ("net.conns", float_of_int (List.length t.conns));
            ("net.inflight", float_of_int t.inflight);
          ]));
  Obs.Event.emit ~severity:Obs.Event.Info ~scope:"net"
    ~name:"server.start" (fun () ->
      [ ("addr", Obs.Event.Str (Addr.to_string bound)) ]);
  t.accept_thread <- Some (Thread.create (fun () -> accept_loop t) ());
  t

let drain t =
  let first =
    locked t (fun () ->
        if t.state = Running then begin
          t.state <- Draining;
          true
        end
        else false)
  in
  if first then
    (* poke the accept loop out of its select; a failed write means the
       pipe is gone because we already stopped — fine either way *)
    try ignore (Unix.write t.wake_w (Bytes.of_string "x") 0 1)
    with Unix.Unix_error _ -> ()

let wait t =
  (match t.accept_thread with
  | Some th ->
      Thread.join th;
      t.accept_thread <- None
  | None -> ());
  (* let in-flight requests finish, bounded *)
  let deadline = Unix.gettimeofday () +. t.config.drain_timeout_s in
  let rec settle () =
    let busy = locked t (fun () -> t.inflight > 0) in
    if busy && Unix.gettimeofday () < deadline then begin
      Thread.delay 0.02;
      settle ()
    end
  in
  settle ();
  (* shut every surviving connection down; readers wake, flush their
     slot queues (force flag stops them waiting on abandoned work) and
     close their own fds *)
  let conns = locked t (fun () -> t.conns) in
  List.iter
    (fun conn ->
      locked t (fun () -> conn.c_force <- true);
      try Unix.shutdown conn.c_fd Unix.SHUTDOWN_ALL
      with Unix.Unix_error _ -> ())
    conns;
  let threads = locked t (fun () -> t.conn_threads) in
  List.iter Thread.join threads;
  locked t (fun () ->
      t.conn_threads <- [];
      t.state <- Stopped);
  (try Unix.close t.wake_r with Unix.Unix_error _ -> ());
  (try Unix.close t.wake_w with Unix.Unix_error _ -> ());
  Service.flush_store t.service;
  Obs.Event.emit ~severity:Obs.Event.Info ~scope:"net"
    ~name:"server.stop" (fun () ->
      [ ("addr", Obs.Event.Str (Addr.to_string t.bound)) ])

let stop t =
  drain t;
  wait t
