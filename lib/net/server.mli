(** The concurrent socket front-end of the analysis service.

    One accept loop (its own thread) admits connections; each connection
    gets a reader thread that frames JSONL requests ({!Frame}) and feeds
    them to the shared {!Svc.Service} pool via the non-blocking
    {!Svc.Service.submit} — the socket readers never compute and never
    block on a full queue.  Responses may finish out of order on the
    worker domains; a per-connection slot sequencer writes them back in
    {e request} order, so pipelined clients can match responses
    positionally as well as by [id].

    Failure handling is per-request or per-connection, never
    process-wide: an unparsable line is a [bad-request] record, an
    oversized line is discarded unbuffered and answered with a
    [bad-request] record, a full pool queue is an [overloaded] record
    ([net.shed]), a peer that vanishes mid-write ([EPIPE]/[ECONNRESET])
    is a counted close ([net.conn.aborted]) — [SIGPIPE] is ignored
    process-wide at {!start}.

    Graceful drain ({!drain}, wired to SIGTERM/SIGINT by [recpart
    serve]): stop accepting (listener closed, Unix socket path
    unlinked), answer [drain] records to new lines on live connections,
    let in-flight requests finish (bounded by [drain_timeout_s]), flush
    the durable store, exit.  Counters: [net.conn.accepted], [.closed],
    [.aborted], [.rejected], [.timeout], [net.req.received],
    [net.resp.sent], [net.shed], [net.frame.oversized],
    [net.req.drained]; gauges [net.conns] / [net.inflight] are
    registered with the service so the [metrics] op exports them. *)

type config = {
  max_conns : int;  (** concurrent connections; excess get one
                        [overloaded] record and a close *)
  max_line : int;  (** request framing bound (bytes), see {!Frame} *)
  idle_timeout_s : float;
      (** close a connection with no request activity for this long
          ([<= 0] = never) *)
  drain_timeout_s : float;
      (** how long {!wait} lets in-flight requests finish before
          force-closing connections *)
}
(** Server lifecycle events ([server.start]/[server.stop], Debug
    [conn.accept]) go to the ambient {!Obs.Event} log, like every other
    layer's. *)

val default_config : config
(** 64 connections, 1 MiB lines, 300 s idle timeout, 10 s drain. *)

type t

val start : ?config:config -> Svc.Service.t -> Addr.t -> t
(** Bind, listen, spawn the accept loop.  TCP port [0] binds an
    ephemeral port ({!addr} reports the real one); an existing file at a
    Unix socket path is unlinked first (stale socket from a previous
    run).  @raise Unix.Unix_error when the bind fails. *)

val addr : t -> Addr.t
(** The address actually bound. *)

val connections : t -> int
val inflight : t -> int

val drain : t -> unit
(** Initiate graceful shutdown: idempotent, non-blocking, callable from
    a signal handler (sets a flag and pokes the accept loop's
    self-pipe). *)

val wait : t -> unit
(** Block until the server is fully stopped: accept loop joined,
    in-flight requests done (or [drain_timeout_s] elapsed), connections
    closed, reader threads joined, store flushed.  Call {!drain} first
    (or let a signal do it). *)

val stop : t -> unit
(** [drain t; wait t]. *)
