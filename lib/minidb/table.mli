(** Heap tables with typed columns and attached B+tree indexes.

    A table may additionally be declared {e partitioned} by an int fk
    column (e.g. the shredder's element fact tables partitioned by
    [path_id]): alongside the heap, the table maintains one segment of
    live row ids per distinct partition-key value, each kept sorted on a
    designated sort column (e.g. [dewey_pos], whose byte order is
    document order). Segments are maintained incrementally by {!insert},
    {!delete} and {!update} — bulk loads in document order append in
    O(1); out-of-order inserts (ORDPATH caret labels from the write
    path) binary-search their slot. Row ids, indexes and {!iter_rows}
    are unaffected; the segments are a physical access path the engine
    uses for partition pruning and order-preserving scans. *)

type column = { name : string; ty : Value.ty }

type partition_spec = { part_col : string; part_sort : string }
(** Partition by [part_col] (must be an int column); keep each
    partition's rows sorted on [part_sort] (any column; compared with
    {!Value.compare_total}, ties by row id). Rows whose partition key is
    [Null] or non-int live in an overflow segment that is never matched
    by a partition scan. *)

type t

val create : ?partition:partition_spec -> name:string -> columns:column list -> unit -> t

val name : t -> string

val version : t -> int
(** Modification counter: bumped on every {!insert}, {!delete} and
    {!create_index}. {!Database.epoch} sums it across tables so prepared
    plans can detect that their compile-time assumptions are stale. *)

val columns : t -> column list
val column_index : t -> string -> int option
val column_ty : t -> string -> Value.ty option

val insert : t -> Value.t array -> int
(** Append a row; returns its row id. Values must match the column count;
    non-null values must match the column types, and every declared key
    ({!create_key}) must be non-null and not held by a live row, else
    [Invalid_argument]. All indexes are maintained. *)

val delete : t -> int -> bool
(** Tombstone a row: it disappears from every index and from
    {!iter_rows}; its id is never reused. Returns false when the id is
    out of range or already deleted. *)

val update : t -> int -> Value.t array -> bool
(** Rewrite a live row in place, preserving its id: indexes whose keys
    changed are maintained, statistics caches are invalidated, and the
    version is bumped. Returns false when the id is out of range or
    tombstoned; raises [Invalid_argument] on a count or type mismatch, or
    when the new row gives a declared key NULL or another live row's
    value. *)

val live_count : t -> int
(** Rows minus tombstones. *)

val row_count : t -> int
val row : t -> int -> Value.t array
(** Row by id. Do not mutate. *)

val iter_rows : (int -> Value.t array -> unit) -> t -> unit

val iter_ids : (int -> unit) -> t -> unit
(** The ids {!iter_rows} visits, for a caller that fetches rows itself. *)

val create_index : t -> string list -> unit
(** Create (and backfill) a B+tree index on the given columns. Idempotent
    for an identical column list. *)

val create_key : t -> string -> unit
(** Declare the column a key (a primary key): no NULL, no two live rows
    with the same value. Creates the single-column index on it if absent
    and enforces the declaration on every later {!insert} and {!update}.
    Raises [Invalid_argument] when the current rows already violate it.
    The planner proves DISTINCT redundant from declared keys. Idempotent. *)

val keys : t -> string list
(** Declared key columns, in declaration order. *)

val index_on : t -> string list -> Btree.t option
(** Exact-columns index lookup. *)

val index_with_prefix : t -> string list -> (Btree.t * int) option
(** An index whose leading columns are exactly the given list; returns the
    index and its total width. Preferred for range scans where only a
    prefix is constrained. *)

val indexes : t -> (string list * Btree.t) list

val distinct_estimate : t -> string -> int
(** Estimated number of distinct non-null values in a column (computed by
    one scan, cached until the row count changes). Used by the planner's
    selectivity model. Returns 1 for unknown columns. *)

val partition_spec : t -> partition_spec option

val partition_count : t -> int
(** Number of non-empty partitions (the overflow segment not included);
    0 for unpartitioned tables. *)

val partition_keys : t -> int list
(** Keys of non-empty partitions, ascending. *)

val partition_size : t -> int -> int
(** Live rows in the given partition (0 for absent keys). *)

val iter_merged : (int -> unit) -> t -> int array -> unit
(** [iter_merged f t keys]: the live row ids of the given partitions,
    globally ascending on (sort value, id) — a heap merge of the sorted
    segments. Absent or empty partitions contribute nothing. Valid under
    the owning database's read lock; [f] must not write the table. *)

val check_partitions : t -> (unit, string) result
(** Test hook: verify the segment invariant — every live row filed under
    exactly one segment matching its partition key, every segment sorted
    strictly ascending on (sort value, id), no dead ids. [Ok ()] for
    unpartitioned tables. *)
