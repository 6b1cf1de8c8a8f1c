(** Serving metrics for the prepared-query service layer.

    Counters (queries served, prepares, cache hits/misses, plan
    invalidations, cache evictions, single-store fallbacks, result rows)
    plus one latency accumulator per pipeline stage — parse, translate,
    plan, queue, execute, merge — each tracking count, total, min and max
    elapsed seconds on the monotonic clock ({!now}) {e and} a fixed-bucket
    log2 histogram from which
    p50/p95/p99 latencies are read. A warm cache hit records only
    [Execute] time; the gap between a query's stage counts and its execute
    count is exactly the work the cache skipped. The [Queue] and [Merge]
    stages are populated by the cluster scatter-gather layer: queue is the
    wait between task submission and a worker picking it up, merge is the
    Dewey k-way merge of the per-shard results. *)

type stage = Parse | Translate | Plan | Queue | Execute | Merge

val stage_name : stage -> string

type t

val create : unit -> t
val reset : t -> unit

(** {2 Recording} *)

val now : unit -> float
(** Seconds on the monotonic clock. Only differences are meaningful: they
    are elapsed time, unaffected by wall-clock adjustments. Every stage
    duration in the library is measured with it. *)

val record : t -> stage -> float -> unit
(** Add one observation (seconds) to a stage accumulator. *)

val time : t -> stage -> (unit -> 'a) -> 'a
(** Run the thunk, record its elapsed {!now} duration under the stage.
    Records even when the thunk raises. *)

val incr_queries : t -> unit
val incr_prepares : t -> unit
val incr_hits : t -> unit
val incr_misses : t -> unit
val incr_invalidations : t -> unit
(** A cached plan had to be rebuilt: the store changed in a way that
    overlaps the plan's footprint (or fine-grained checking is off). *)

val incr_retained : t -> unit
(** A cached plan survived a store change: the fine-grained footprint
    check ({!Ppfx_minidb.Engine.plan_compatible}) proved the commits
    since prepare disjoint from the plan's tables and pathids, so the
    plan ran without re-planning. *)

val incr_evictions : t -> unit

val incr_fallbacks : t -> unit
(** A query the cluster routed to single-store execution because its SQL
    was not shard-partitionable. *)

val add_rows : t -> int -> unit
(** Accumulate result rows produced (per shard, or overall). *)

val set_shard_rows : t -> int list -> unit
(** Record the current per-shard live row counts (a gauge, not a
    counter): the cluster layer refreshes this after loads and routed
    mutations so balance drift is visible in {!dump} and {!to_json}. *)

val add_engine : t -> Ppfx_minidb.Engine.exec_stats -> unit
(** Accumulate a batch of engine operator counters (typically the
    {!Ppfx_minidb.Engine.stats_diff} around one plan execution, or a
    freshly prepared plan's plan-time stats). *)

(** {2 Network server counters}

    Populated by the wire-protocol server ({!Ppfx_net.Server}); all
    mutators are safe to call from multiple domains concurrently. *)

val incr_accepted : t -> unit
(** A connection passed admission control and was accepted. *)

val incr_rejected : t -> unit
(** A connection or request was refused by admission control. *)

val connection_opened : t -> unit
(** Track a live connection; also updates the peak-active high-water
    mark. *)

val connection_closed : t -> unit

val add_bytes_in : t -> int -> unit
val add_bytes_out : t -> int -> unit

val note_queue_depth : t -> int -> unit
(** Observe the dispatch-queue depth; keeps the high-water mark. *)

(** {2 Durability counters}

    Populated by the write-ahead-log layer ({!Ppfx_wal.Store}). *)

val add_wal_appends : t -> count:int -> bytes:int -> unit
(** Framed records appended to the log ([bytes] on the wire, headers
    included). The WAL store batches counters until a sink is attached,
    so mutators take counts rather than incrementing by one. *)

val add_wal_fsyncs : t -> int -> unit
val add_checkpoints : t -> int -> unit

val add_recovery : t -> replayed:int -> truncated_bytes:int -> clean:bool -> unit
(** Record one store start from disk. [clean] means the manifest carried
    the clean-shutdown marker, so the WAL scan was skipped entirely
    (counted under [clean_starts]); otherwise the start counts as a
    recovery with [replayed] records applied and [truncated_bytes] of
    torn/corrupt tail cut off (0 when the log ended cleanly). *)

val incr_clean_shutdowns : t -> unit
(** A clean close wrote the shutdown marker (checkpoint + clean
    manifest). *)

(** {2 Reading} *)

val queries : t -> int
val prepares : t -> int
val hits : t -> int
val misses : t -> int
val invalidations : t -> int
val retained : t -> int
val evictions : t -> int
val fallbacks : t -> int
val rows : t -> int

val shard_rows : t -> int list
(** Last recorded per-shard row counts; empty when not clustered. *)

val shard_skew : t -> float
(** Largest shard's row count over the mean (1.0 = perfectly balanced);
    [nan] when no shard counts were recorded or all shards are empty. *)

val wal_appends : t -> int
val wal_bytes : t -> int
val wal_fsyncs : t -> int
val checkpoints : t -> int
val recoveries : t -> int
val clean_starts : t -> int
val replayed_records : t -> int
val truncated_tails : t -> int
val truncated_bytes : t -> int
val clean_shutdowns : t -> int

val accepted : t -> int
val rejected : t -> int
val active_connections : t -> int
val peak_connections : t -> int
val bytes_in : t -> int
val bytes_out : t -> int
val queue_depth_hwm : t -> int

val engine_stats : t -> Ppfx_minidb.Engine.exec_stats
(** Cumulative engine operator counters recorded via {!add_engine}:
    rows scanned/probed/emitted, regex evaluations, hash-join builds and
    semi-join reductions attributable to this metrics sink. *)

val stage_count : t -> stage -> int
val stage_total : t -> stage -> float
(** Seconds accumulated in the stage; 0 when never recorded. *)

val stage_percentile : t -> stage -> float -> float
(** [stage_percentile t stage q] is the [q]-quantile ([0..1], e.g. 0.95)
    of the stage's recorded latencies in seconds, read from a 64-bucket
    log2 histogram (bucket [i] holds durations in [2^i, 2^(i+1))
    nanoseconds); the returned value is the winning bucket's geometric
    midpoint, i.e. exact to within a factor of sqrt(2). [nan] before any
    observation. *)

val hit_rate : t -> float
(** Hits over (hits + misses); [nan] before any lookup. *)

val dump : t -> string
(** Multi-line human-readable report, including p50/p95/p99 columns. *)

val to_json : t -> string
(** One JSON object with every counter and per-stage accumulator
    (including percentiles). *)
