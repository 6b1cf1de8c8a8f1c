(** Concurrent TCP server for the {!Wire} protocol.

    A pool of worker domains serves every socket in the Leader/Followers
    pattern (Schmidt et al., 2000); there is no separate event-loop
    domain. An idle worker that finds the dispatch queue empty and no
    other worker leading becomes the leader: it polls the listening
    socket, a wake pipe and every live connection, accepts, reads
    (nonblocking reads into per-connection reassembly buffers, stopping
    at the first short read) and decodes, and admits the decoded
    requests into a bounded dispatch queue. It then gives up the lead,
    waking at most one follower to take it, and runs the first queued
    request on its own domain. With one worker, the same domain reads,
    runs and writes a request and no one is woken. A connection has at
    most one request in flight — later frames queue on the connection —
    so per-connection statement state (prepared statements) is only ever
    touched by one worker at a time and needs no locking.

    {b Admission control.} Admission applies at every poll. Connections
    beyond [max_connections] are refused at accept with an [Admission]
    error frame; requests arriving while the dispatch queue (or their
    connection's own queue) holds [queue_depth] entries are answered
    with an [Admission] error instead of being queued (the connection
    survives; a rejected [Close_stmt] is counted but, having no reply,
    not answered). Overload therefore rejects rather than degrades. A
    burst that arrives while every worker is busy waits in the kernel
    until the next poll.

    {b Backpressure.} The worker that runs an [Execute] or [Query]
    writes its whole answer, [fetch_window] rows a [Rows] frame, back to
    back under the connection's write lock; the server keeps no cursor.
    A frame is encoded into the connection's send buffer and written
    before the next is encoded, so a worker holds one frame at a time,
    and the socket's flow control paces it. A peer that stops reading
    holds the worker only for the write stall bound: once the send
    buffer has stayed full for 10 s the write fails and the connection
    is closed.

    {b Error containment.} Malformed frames and client disconnects are
    per-connection events: the connection gets a [Protocol] error frame
    (when writable) and is closed; every other connection keeps serving.
    Query-level failures (parse, unsupported, runtime) are answered with
    typed error frames on a connection that stays open.

    {b Shutdown.} {!stop} wakes the leader through the pipe; it makes a
    final non-blocking read sweep, and no worker leads again. The
    workers drain queued and in-flight requests (their responses are
    written) and exit; {!stop} joins them, then closes every connection
    with [Bye]. *)

module Session = Ppfx_service.Session
module Cluster = Ppfx_cluster.Cluster
module Metrics = Ppfx_service.Metrics
module Engine = Ppfx_minidb.Engine
module Database = Ppfx_minidb.Database
module Sql = Ppfx_minidb.Sql

type config = {
  host : string;  (** bind address, default 127.0.0.1 *)
  port : int;  (** 0 picks an ephemeral port (see {!port}) *)
  workers : int;  (** worker domains, >= 1; they take turns leading *)
  max_connections : int;  (** admission bound on concurrent connections *)
  queue_depth : int;  (** admission bound on queued requests *)
  max_frame : int;  (** frames above this are protocol errors *)
  fetch_window : int;  (** rows per [Rows] frame of an answer *)
  server_name : string;  (** advertised in [Welcome] *)
  shards : int;  (** advertised in [Welcome] *)
}

val default_config : config
(** 127.0.0.1:0, 2 workers, 64 connections, 64 queued requests, 16 MiB
    frames, 512 rows a [Rows] frame. *)

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
(** The checkpoint sidecar of a single updatable store: current schema,
    the shadow's trees and id counters ({!Ppfx_update.Update.shadow}),
    no cluster extras. What {!session_executor}'s WAL
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
(** Bind, listen and spawn exactly [workers] domains (the factory runs
    once in each); [workers] and [fetch_window] must be at least 1. SIGPIPE is ignored process-wide so peer resets
    surface as [EPIPE]. *)

val port : t -> int
(** The bound port (useful with [port = 0]). *)

val config : t -> config

val metrics : t -> Metrics.t
(** Server-level serving metrics, all in the net group and its stages:
    accepted / rejected / active connections, wire requests served
    ([Requests]) and rows sent ([Rows_sent]), bytes in and out,
    dispatch-queue depth high-water mark, and request latencies ([Queue]
    = from decode to the start of its run, [Request] = request service
    time). Plan executions
    are counted by the executors' own sinks, so the two {!Metrics.absorb}
    into one report. *)

val stop : t -> unit
(** Drain and shut down; idempotent, safe from any thread. *)
