(** Concurrent TCP server for the {!Wire} protocol.

    One event-loop domain owns the listening socket and every connection
    socket: it accepts, assembles length-prefixed frames incrementally
    (nonblocking reads, per-connection reassembly buffers), and feeds
    decoded requests into a bounded dispatch queue drained by a pool of
    worker domains. A connection has at most one request in flight —
    later frames queue on the connection — so per-connection statement
    state (prepared statements, open cursors) is only ever touched by
    one worker at a time and needs no locking.

    {b Admission control.} Connections beyond [max_connections] are
    refused at accept with an [Admission] error frame; requests arriving
    while the dispatch queue holds [queue_depth] entries are answered
    with an [Admission] error instead of being queued (the connection
    survives). Overload therefore rejects rather than degrades.

    {b Backpressure.} Results stream in bounded windows: an [Execute]
    response carries at most the fetch window of rows, the rest stays in
    a server-side cursor until the client [Fetch]es — the server never
    buffers an unbounded response into a socket.

    {b Error containment.} Malformed frames and client disconnects are
    per-connection events: the connection gets a [Protocol] error frame
    (when writable) and is closed; every other connection keeps serving.
    Query-level failures (parse, unsupported, runtime) are answered with
    typed error frames on a connection that stays open.

    {b Shutdown.} {!stop} stops accepting and reading, drains queued and
    in-flight requests (their responses are written), then closes every
    connection with [Bye] and joins the domains. *)

module Session = Ppfx_service.Session
module Cluster = Ppfx_cluster.Cluster
module Metrics = Ppfx_service.Metrics
module Engine = Ppfx_minidb.Engine
module Database = Ppfx_minidb.Database
module Sql = Ppfx_minidb.Sql

type config = {
  host : string;  (** bind address, default 127.0.0.1 *)
  port : int;  (** 0 picks an ephemeral port (see {!port}) *)
  workers : int;  (** executor domains, >= 1 *)
  max_connections : int;  (** admission bound on concurrent connections *)
  queue_depth : int;  (** admission bound on queued requests *)
  max_frame : int;  (** frames above this are protocol errors *)
  fetch_window : int;  (** server-side cap on rows per [Rows] frame *)
  server_name : string;  (** advertised in [Welcome] *)
  shards : int;  (** advertised in [Welcome] *)
}

val default_config : config
(** 127.0.0.1:0, 2 workers, 64 connections, 64 queued requests, 16 MiB
    frames, 512-row fetch windows. *)

(** {2 Executors}

    The bridge between a connection and the serving stack. Each worker
    domain gets its own executor from the factory passed to {!start}, so
    a session-backed executor needs no synchronization: every worker
    owns a private {!Session.t} (plan cache included) over the shared
    store. A cluster-backed executor is shared and serialized by a
    mutex — the cluster parallelizes internally across its shard pool. *)

type executor = {
  exec_prepare : values:bool -> string -> Sql.statement option * (unit -> Engine.result);
      (** translated SQL, with string values when [values] (the
          [Prepare] flag), and the handle that runs the prepared
          statement: it neither re-parses nor consults the plan cache,
          so it keeps working after the cache evicts the entry; raises
          the usual parse / unsupported exceptions. The server calls a
          handle only on the worker whose executor returned it; a
          statement executed on another worker is prepared again
          there. *)
  exec_update : Wire.update_op -> Ppfx_update.Update.outcome;
      (** apply one mutation; raises {!Ppfx_update.Update.Update_error}
          on invalid operations (answered with a [Runtime] error frame)
          and {!Ppfx_xml.Parser.Error} on malformed fragment XML *)
  exec_db : Database.t option;
      (** catalog used to type the prepared-statement column metadata *)
}

val store_meta : Ppfx_update.Update.t -> Ppfx_wal.Record.meta
(** The checkpoint sidecar of a single updatable store: current schema +
    shadow forest, no cluster extras. What {!session_executor}'s WAL
    checkpoints write, and what a clean shutdown should pass to
    {!Ppfx_wal.Store.close_clean}. *)

val session_executor :
  ?update:Mutex.t * Ppfx_update.Update.t ->
  ?wal:Ppfx_wal.Store.t ->
  Session.t ->
  executor
(** Without [update] the server is read-only: [Update] requests are
    answered with a [Runtime] error. With [update], mutations stage
    through the shared updatable store, serialized by the mutex (worker
    domains each hold a private session but share one shadow forest;
    readers are serialized against commits by the store's own snapshot
    lock, not this mutex). With [wal] too, every mutation is appended to
    the log — and fsynced per the store's durability policy — {e before}
    it commits in memory and the [Updated] ack is written; the mutex
    also serializes the log, and checkpoints rotate it per the store's
    size/record policy. The session is used only by the worker the
    factory built this executor for: a statement executed on another
    worker is prepared again on that worker's executor. *)

val cluster_executor : Mutex.t -> Cluster.t -> executor
(** Mutations route through {!Cluster.update} under the same mutex as
    queries. *)

val columns_of_statement : Database.t option -> Sql.statement -> Wire.column list
(** Static column metadata for a translated statement: output names from
    the projection list ([id], [dewey_pos], and [value] when the
    statement projects it), types resolved through the catalog where a
    projection is a plain column reference (else inferred from the
    expression shape, [Tany] when unknown). *)

(** {2 Lifecycle} *)

type t

val start : ?config:config -> (unit -> executor) -> t
(** Bind, listen, spawn the event-loop domain and [workers] executor
    domains (the factory runs once in each worker domain). SIGPIPE is
    ignored process-wide so peer resets surface as [EPIPE]. *)

val port : t -> int
(** The bound port (useful with [port = 0]). *)

val config : t -> config

val metrics : t -> Metrics.t
(** Server-level serving metrics, all in the net group and its stages:
    accepted / rejected / active connections, wire requests served
    ([Requests]) and rows sent ([Rows_sent]), bytes in and out,
    dispatch-queue depth high-water mark, and request latencies ([Queue]
    = dispatch wait, [Request] = request service time). Plan executions
    are counted by the executors' own sinks, so the two {!Metrics.absorb}
    into one report. *)

val stop : t -> unit
(** Drain and shut down; idempotent, safe from any thread. *)
