(** The sharded store: domain-parallel scatter-gather execution.

    A cluster partitions a document collection into [shards] shard
    stores by root-child subtree ({!Partition}) and keeps one unsharded
    store inside a {!Ppfx_service.Session} for translation/plan caching,
    overall metrics, and fallback execution. Per distinct query the
    translated SQL is analyzed once ({!Analysis}): partitionable
    statements are prepared per shard (plans revalidated against each
    shard's epoch), fanned out over a {!Pool} of domains, and k-way
    merged by Dewey position ({!Merge}). Order-axis statements — two
    locally-joined alias groups related only by document-order dewey
    comparisons or boundary sibling joins — decompose instead of falling
    back ({!Analysis.Order_partitionable}): both side selects scatter
    over the shards, each side is k-way merged, and a coordinator select
    joins the merged streams in a throwaway two-table database (indexed
    on the merge key, so the engine serves the Dewey range join by index
    range scans).
    Everything else — counting queries, uncorrelated EXISTS — runs on
    the unsharded store. Either way the answer is exactly equal to
    single-store execution. *)

module Tree = Ppfx_xml.Tree
module Graph = Ppfx_schema.Graph
module Loader = Ppfx_shred.Loader
module Translate = Ppfx_translate.Translate
module Engine = Ppfx_minidb.Engine
module Session = Ppfx_service.Session
module Metrics = Ppfx_service.Metrics
module Update = Ppfx_update.Update
module Wstore = Ppfx_wal.Store

type t

val create :
  ?pool_size:int ->
  ?cache_capacity:int ->
  ?options:Translate.options ->
  shards:int ->
  Graph.t ->
  Tree.node list ->
  t
(** Build the full store and [shards] shard stores from the documents
    (source trees — the cluster keeps the full store's write path, whose
    shadow forest needs them). [pool_size] defaults to [shards] worker
    domains; [0] executes tasks inline on the caller (deterministic, for
    tests). [cache_capacity] bounds both the session's translation cache
    and the cluster's per-query routing cache (default 256). Raises
    [Invalid_argument] when [shards < 1]. *)

val load : t -> Tree.node -> unit
(** Shred one more document into the full store through {!Update.load}
    and, partitioned, into every shard store with the ids and [doc_id]
    that load chose, so ids stay past every caret insert's. Bulk loads
    are conservative: every store's epoch bumps and all cached plans
    re-prepare on next use (mutations through {!update} commit
    fine-grained instead). A document the schema rejects raises
    {!Loader.Rejected} and changes no store. *)

val update : t -> Update.op -> Update.outcome
(** Execute one subtree mutation cluster-wide. The changeset is staged
    once against the full store's shadow, committed to the full store,
    and replayed on every shard: updates and deletes apply wherever the
    row lives (spine replicas included), inserts only on the {e owning}
    shard — the shard holding the splice point's sibling anchors or
    non-replicated parent, or the lightest shard when the parent is a
    replicated spine element (the new frontier subtree's parent fk then
    joins the boundary set). Every commit is logged fine-grained, so
    prepared plans on all stores revalidate by footprint intersection
    ([retained] vs [invalidations] in the metrics). Raises
    {!Update.Update_error} on invalid operations. *)

val shard_row_counts : t -> int list
(** Live element rows per shard, [Paths] excluded — the balance gauge
    (also pushed into {!metrics} as [shard_rows] after every load and
    mutation). *)

val close : t -> unit
(** Shut the worker pool down (idempotent via {!Pool.shutdown}). On a
    durable cluster this is the drained clean shutdown: every store takes
    a final checkpoint (rotating its log to empty) and marks its manifest
    clean, so the next {!open_durable} skips the replay scans. *)

(** {2 Durability}

    A durable cluster keeps one {!Ppfx_wal.Store} per physical store
    under a data directory: [full/] for the coordinator — whose
    checkpoints carry the shadow's trees and id counters and the
    routing extras (partition counts + boundary fks) — and [shard-<k>/]
    per shard.
    {!update} appends the commit record to every log ({e before}
    applying and acking, fsynced per the durability policy), so at any
    crash point recovery rebuilds exactly the acked prefix. *)

val make_durable :
  ?io:Ppfx_wal.Io.t ->
  ?durability:Wstore.durability ->
  ?checkpoint_bytes:int ->
  ?checkpoint_records:int ->
  data_dir:string ->
  t ->
  unit
(** Attach write-ahead logging to a freshly built cluster: initializes
    [data_dir/full] and [data_dir/shard-<k>] with generation-0 checkpoints
    of the current stores. After this, {!load} refuses (bulk loads are
    not WAL-logged — load documents first) and every {!update} is logged
    before it commits. Raises [Invalid_argument] if already durable. *)

val open_durable :
  ?io:Ppfx_wal.Io.t ->
  ?durability:Wstore.durability ->
  ?checkpoint_bytes:int ->
  ?checkpoint_records:int ->
  ?pool_size:int ->
  ?cache_capacity:int ->
  ?options:Translate.options ->
  data_dir:string ->
  unit ->
  (t, string) result
(** Cold-start a cluster from its data directory, skipping shredding
    entirely: recover the full store (checkpoint snapshot + WAL replay
    through {!Wstore.rebuild_full}, rebuilding the shadow from the
    sidecar's trees and the recovered relations), recover every shard
    named by the routing extras, and reopen all logs for append. The shard count, partition
    counts and boundary-fk set come from the last acked commit's extras.
    Recovery statistics flow into {!metrics} / {!shard_metrics}. *)

val durable : t -> bool

val wal_next_seq : t -> int option
(** The full store's next WAL sequence number ([None] when volatile) —
    [n] means [n - 1] commits are acked-and-persisted. Test
    introspection for the crash-recovery differential. *)

val flush_wal : t -> unit
(** Fsync unsynced group-commit appends on every store (no-op when
    volatile or already synced). *)

val dispose_wal : t -> unit
(** Drop the WAL handles without flushing or checkpointing — the
    post-crash path in fault-injection harnesses. The cluster reverts to
    volatile; on-disk state is whatever the crash left. *)

val with_cluster :
  ?pool_size:int ->
  ?cache_capacity:int ->
  ?options:Translate.options ->
  shards:int ->
  Graph.t ->
  Tree.node list ->
  (t -> 'a) ->
  'a
(** [create] / run / [close], exception-safe. *)

(** {2 Executing queries} *)

type prepared = Session.prepared

val prepare : ?values:bool -> t -> string -> prepared
(** {!Session.prepare} on the embedded session: parse + translate + plan
    cached across calls. The merge keys on [dewey_pos], so it serves
    statements with and without [value]. *)

val execute : t -> prepared -> Engine.result
(** Scatter-gather when the query's SQL is partitionable, single-store
    execution otherwise (counted in [fallbacks] of {!metrics}). *)

val execute_ids : t -> prepared -> int list
val run_ids : t -> string -> int list

val verdict : t -> string -> Analysis.verdict option
(** How the cluster routes this query; [None] when the schema proves the
    result empty (no SQL is produced at all). *)

(** {2 Introspection} *)

type scatter_stats = {
  critical_path : float;
      (** max per-shard execute seconds of the last scatter — the gather
          latency an idle multi-core host would observe *)
  queue_waits : float array;  (** per-shard pool queue wait, seconds *)
  shard_rows : int array;  (** per-shard result rows before the merge *)
}

val last_stats : t -> scatter_stats option
(** Stats of the most recent scatter-gather {!execute}; [None] before the
    first one (fallback executions do not update it). *)

val session : t -> Session.t
val metrics : t -> Metrics.t
(** Overall serving metrics (the embedded session's): Execute is the
    scatter-gather elapsed time, Merge the k-way merge, [fallbacks] and
    [rows] the routing counters. *)

val shards : t -> int
val pool_size : t -> int
val shard_metrics : t -> Metrics.t array
(** Per-shard metrics: Plan/Queue/Execute latencies, queries, rows,
    invalidations. *)

val shard_stores : t -> Loader.t array
val partition_counts : t -> int array
(** Stored elements per shard (roots excluded), summed over documents. *)

val full_update : t -> Update.t
(** The full store's write path — exposes the shadow forest's
    introspection ({!Update.ranks}, {!Update.current_trees}) for the
    incremental-vs-reshred differential. *)
