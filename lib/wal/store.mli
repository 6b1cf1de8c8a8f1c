(** Per-store durability: an atomic checkpoint manifest over
    {!Ppfx_minidb.Codec} snapshots plus an append-only, CRC-framed
    write-ahead log of {!Ppfx_update.Update} changesets.

    A store directory holds exactly one current generation [g]:
    - [checkpoint-<g>.db] — the PPFXDB5 database snapshot;
    - [checkpoint-<g>.meta] — magic [PPFXMET3], then one frame: the
      schema graph, on full stores the current document trees and the
      next element and path ids ({!Ppfx_update.Update.shadow}), and the
      cluster extras. Ids, labels and path ids are not repeated there:
      recovery reads them from the snapshot's rows. Older sidecars are
      refused by their magic;
    - [wal-<g>.log] — records acked since the checkpoint;
    - [MANIFEST] — names [g]; atomically replaced, the commit point of
      every rotation.

    Write discipline: a commit is staged in memory, {!append}ed (then
    fsynced per the {!durability} policy), and only then applied to the
    in-memory store and acked. Checkpoints write the next generation's
    snapshot + empty segment, then swing the manifest; a crash at any
    point leaves the previous generation complete. Recovery loads the
    manifest's snapshot and replays every whole, CRC-valid, in-sequence
    record, truncating the first torn/corrupt frame and everything after
    it.

    Not thread-safe: callers serialize (the server's update lock / the
    cluster's coordinator already do). *)

module Database = Ppfx_minidb.Database
module Loader = Ppfx_shred.Loader
module Update = Ppfx_update.Update
module Metrics = Ppfx_service.Metrics

type durability =
  | Off  (** never fsync; the OS decides (bench baseline) *)
  | Fsync  (** fsync after every append — an ack survives any crash *)
  | Batch of int
      (** group commit: fsync every [n] appends (and on {!flush}); a
          crash may lose up to the last [n-1] acked commits *)

val durability_to_string : durability -> string
val durability_of_string : string -> (durability, string) result
(** Accepts ["off"], ["fsync"], ["batch"] (= 32), ["batch:N"]. *)

type t

(** {2 Opening} *)

val init :
  ?io:Io.t ->
  ?durability:durability ->
  ?checkpoint_bytes:int ->
  ?checkpoint_records:int ->
  dir:string ->
  db:Database.t ->
  meta:Record.meta ->
  unit ->
  t
(** Create (or re-create) a store directory from a freshly shredded
    store: writes checkpoint generation 0, an empty segment, and the
    manifest, and opens the segment for append. [checkpoint_bytes] /
    [checkpoint_records] set the {!should_checkpoint} policy. *)

val exists : dir:string -> bool
(** A manifest is present — {!recover} instead of shred + {!init}. *)

type recovery = {
  replayed : int;  (** records replayed from the segment *)
  truncated_bytes : int;  (** torn/corrupt tail cut off (0 = clean end) *)
  clean : bool;  (** clean-shutdown marker found; replay scan skipped *)
}

type recovered = {
  store : t;  (** open for append, on the recovered generation *)
  db : Database.t;  (** the checkpoint snapshot — {e before} replay *)
  meta : Record.meta;
  records : Record.t list;  (** replay these (e.g. {!rebuild_full}) *)
  recovery : recovery;
}

val recover :
  ?io:Io.t ->
  ?durability:durability ->
  ?checkpoint_bytes:int ->
  ?checkpoint_records:int ->
  dir:string ->
  unit ->
  (recovered, string) result
(** Open an existing store directory: read the manifest, load its
    snapshot generation, scan the segment (skipped entirely when the
    clean marker is set), truncate any invalid tail, and reopen for
    append. The caller applies [records] to [db] — {!rebuild_full} /
    {!rebuild_db} do it. *)

(** {2 The write path} *)

val append :
  t ->
  ?op:Update.op ->
  ?inserts:bool ->
  ?extras:Record.extras ->
  Update.changeset ->
  int
(** Frame and append one commit record (assigning and returning its
    sequence number), fsyncing per the durability policy. Must happen
    {e before} the commit is applied in memory and acked. [op] is logged
    on full stores so replay can rebuild the shadow; [inserts] is the
    shard replay flag; [extras] the cluster routing state after this
    commit. *)

val flush : t -> unit
(** Fsync any unsynced appends (group-commit flush, shutdown path). *)

val should_checkpoint : t -> bool
(** The size/record-count policy says the segment has earned a rotation. *)

val checkpoint : t -> db:Database.t -> meta:Record.meta -> unit
(** Write the next generation (snapshot of the current [db]/[meta] +
    fresh empty segment), atomically swing the manifest to it, and drop
    the superseded files. Crash-safe at every step. *)

(** {2 Shutdown} *)

val close : t -> unit
(** Flush + close. The manifest keeps [clean = false]; the next open
    scans and replays the segment. *)

val close_clean : t -> db:Database.t -> meta:Record.meta -> unit
(** Drained shutdown: final {!checkpoint}, then mark the manifest clean
    so the next open skips the replay scan entirely. *)

val dispose : t -> unit
(** Close descriptors without flushing — the post-{!Io.Crashed} path in
    test harnesses. *)

(** {2 Replay helpers} *)

val rebuild_full :
  db:Database.t -> meta:Record.meta -> Record.t list -> (Update.t, string) result
(** Rebuild a full store from a recovery: re-adopt the snapshot through
    {!Update.of_shadow} (the sidecar's trees matched against the
    snapshot's rows: schema, paths, ids and labels), then
    for each record re-stage its logged op (moving the shadow) and
    commit its logged changeset (the authoritative acked bytes). *)

val rebuild_db :
  db:Database.t -> meta:Record.meta -> Record.t list -> Loader.t
(** Rebuild a shard store: replay each record's changeset with its
    logged [inserts] flag. No shadow is involved. *)

val final_extras : Record.meta -> Record.t list -> Record.extras option
(** The cluster routing state as of the last acked commit: the last
    record's extras, falling back to the checkpoint's. *)

(** {2 Introspection} *)

val dir : t -> string
val next_seq : t -> int
(** The sequence number the next {!append} will assign. *)

val durability : t -> durability

val set_metrics : t -> Metrics.t -> unit
(** Attach a sink; counters observed before attachment (including the
    recovery stats) are pushed at once, later ones live. *)
