(** Serving metrics for the prepared-query service layer.

    One latency accumulator per pipeline stage — parse, translate, plan,
    queue, request, execute, merge — tracks count, total, min and max
    elapsed seconds on the monotonic clock ({!now}) {e and} a log2
    histogram from which p50/p95/p99 are read. A warm cache hit records
    only [Execute] time; the gap between a query's stage counts and its
    execute count is exactly the work the cache skipped.

    Next to the stages sit the integer counters, each declared once in
    {!counters} with its name and group, and the engine's operator
    counters ({!add_plan}). A counter or stage means one thing in every
    sink, so the server's, sessions' and cluster's sinks sum ({!absorb}). *)

type stage =
  | Parse | Translate | Plan
  | Queue  (** the wait for a worker (a server request's or a shard task's) *)
  | Request  (** a server worker's service of one wire request *)
  | Execute  (** one plan execution; a cluster's whole scatter-gather *)
  | Merge  (** the k-way merge of a cluster's per-shard results *)

val stage_name : stage -> string

type counter =
  | Queries  (** plan executions; one per cluster execute *)
  | Prepares | Hits | Misses
  | Invalidations  (** a cached plan was rebuilt: a store change overlapped its footprint *)
  | Retained
      (** a cached plan survived a store change: {!Ppfx_minidb.Engine.plan_compatible}
          proved the commits since prepare disjoint from its footprint *)
  | Evictions
  | Fallbacks  (** cluster queries run on one store: their SQL was not shard-partitionable *)
  | Rows  (** answer rows produced (per shard, or overall) *)
  | Accepted | Rejected  (** connections/requests past or refused by admission control *)
  | Requests  (** wire requests a server worker served (Prepare, Execute, Query, ...) *)
  | Rows_sent  (** rows a server wrote in [Rows] frames *)
  | Active | Peak_active  (** live connections, and their high-water mark *)
  | Bytes_in | Bytes_out
  | Queue_depth_hwm  (** dispatch-queue high-water mark *)
  | Wal_appends | Wal_bytes  (** framed log records, and their bytes with headers *)
  | Wal_fsyncs | Checkpoints
  | Recoveries | Clean_starts  (** starts that replayed the log / skipped it (clean marker) *)
  | Replayed_records
  | Truncated_tails | Truncated_bytes  (** recoveries that cut a torn tail, and its bytes *)
  | Clean_shutdowns  (** closes that wrote the clean-shutdown marker *)

type group =
  | Service  (** session and cluster counters: top-level JSON keys *)
  | Net  (** the wire server's ({!Ppfx_net.Server}), under ["net"] *)
  | Durability  (** the WAL layer's ({!Ppfx_wal.Store}), under ["durability"] *)

val counters : (counter * string * group) list
(** The counter table: every counter once, with its one name (its JSON
    key and dump label) and its group, in the order {!dump} and {!to_json}
    print them. *)

val group_name : group -> string

type t

val create : unit -> t

val reset : t -> unit
(** Zero every counter and stage; clear the shard and engine figures. *)

(** {2 Recording}

    Safe from several domains at once; each call takes the sink's lock
    once. [record], [incr], [add], [note_max] and [add_plan] allocate
    nothing. *)

val now : unit -> float
(** Seconds on the monotonic clock; only differences are meaningful. Every
    stage duration in the library is measured with it. *)

val record : t -> stage -> float -> unit
(** Add one observation (seconds) to a stage accumulator. *)

val time : t -> stage -> (unit -> 'a) -> 'a
(** Run the thunk and record its duration under the stage, even if it raises. *)

val incr : t -> counter -> unit
val add : t -> counter -> int -> unit

val note_max : t -> counter -> int -> unit
(** Raise a high-water mark ([Queue_depth_hwm]) to the observed value. *)

val connection_opened : t -> unit
(** [incr Active], then raise [Peak_active]. The caller serializes opens. *)

val connection_closed : t -> unit

val add_recovery : t -> replayed:int -> truncated_bytes:int -> clean:bool -> unit
(** One store start from disk: a [Clean_starts] when the manifest carried
    the clean-shutdown marker (the WAL scan was skipped), otherwise a
    [Recoveries] with [replayed] records and [truncated_bytes] of
    torn/corrupt tail cut off (a [Truncated_tails] when nonzero). *)

val set_shard_rows : t -> int list -> unit
(** The current per-shard live row counts (a gauge, refreshed by the
    cluster after loads and routed mutations). *)

val add_plan : t -> Ppfx_minidb.Engine.plan -> unit
(** Add the plan's engine counts since its last report into the sink, in
    place ({!Ppfx_minidb.Engine.report_stats}): after a prepare, re-plan
    or run, by the plan's owner. *)

val absorb : into:t -> t -> unit
(** Add every counter, stage accumulator and engine counter of the second
    sink into [into]; high-water marks add too. [into] takes the second
    sink's shard rows when it has none, and otherwise keeps its own. *)

(** {2 Reading} *)

val get : t -> counter -> int

val hits : t -> int
val misses : t -> int
val invalidations : t -> int
val retained : t -> int
val bytes_out : t -> int
val checkpoints : t -> int
val wal_bytes : t -> int
val wal_fsyncs : t -> int
(** [get t Hits], …: kept for the serving benchmark, which reads them by name. *)

val shard_rows : t -> int list
(** Last recorded per-shard row counts; empty when not clustered. *)

val shard_skew : t -> float
(** Largest shard's row count over the mean (1.0 = balanced); [nan] when
    no shard counts were recorded or all shards are empty. *)

val engine_stats : t -> Ppfx_minidb.Engine.exec_stats
(** A snapshot of the engine operator counters reported via {!add_plan}. *)

val stage_count : t -> stage -> int
val stage_total : t -> stage -> float
(** Seconds accumulated in the stage; 0 when never recorded. *)

val stage_percentile : t -> stage -> float -> float
(** The [q]-quantile ([0..1]) of the stage's latencies in seconds: the
    geometric midpoint of the winning bucket of a 64-bucket log2
    histogram (bucket [i] holds [2^i, 2^(i+1)) ns), so exact to within a
    factor of sqrt(2). [nan] before any observation. *)

val hit_rate : t -> float
(** Hits over (hits + misses); [nan] before any lookup. *)

val dump : t -> string
(** Human-readable report: a [group: name value, ...] line per counter
    group (net and durability only once one of theirs moved), the engine
    counters, and the stage table with p50/p95/p99 columns. *)

val to_json : t -> string
(** One JSON object: service counters at the top level, then ["engine"],
    ["net"], ["shards"], ["durability"] and per-stage ["stages"]. *)
