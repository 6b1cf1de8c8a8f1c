(** Serialization of the durability layer's payloads: WAL records
    (sequence number + staged op + changeset + cluster extras), shadow
    snapshots, the schema graph, and the checkpoint sidecar.

    Every payload is built from {!Ppfx_minidb.Codec}'s primitives
    (zigzag-LEB128 varints, length-prefixed strings, tagged values); XML
    fragments are encoded structurally (tag / attrs / interleaved
    children), {e not} through the printer/parser pair, so whitespace-only
    text nodes round-trip exactly. *)

module Graph = Ppfx_schema.Graph
module Update = Ppfx_update.Update

exception Corrupt of string
(** Malformed bytes; the same exception as {!Ppfx_minidb.Codec.Corrupt}.
    A record payload that passed its frame CRC but fails to decode is
    treated by recovery exactly like a torn frame. *)

type extras = {
  partition_counts : int list;  (** per-shard element row counts *)
  boundary_fks : string list;  (** grown boundary foreign-key columns *)
}
(** Cluster routing state; persisted with every full-store record so a
    recovery at any point sees the boundary set and shard weights of the
    last acked commit. *)

type t = {
  r_seq : int;  (** commit sequence number, 1-based, monotone per store *)
  r_op : Update.op option;
      (** the staged operation — present on full stores, where replay
          re-stages it to rebuild the shadow deterministically *)
  r_inserts : bool;  (** replay flag for {!Update.commit} [~inserts] *)
  r_cs : Update.changeset;  (** the authoritative acked row changes *)
  r_extras : extras option;
}

val encode : t -> string
val decode : string -> t
(** Raises {!Corrupt}. *)

(** {2 Checkpoint sidecar} *)

type meta = {
  m_schema : Graph.t;
  m_shadow : Update.shadow option;  (** present on full stores *)
  m_extras : extras option;
}

val encode_meta : meta -> string

val decode_meta : string -> meta
(** Raises {!Corrupt}. The schema is rebuilt through {!Graph.Builder} in
    definition order, so vertex ids and [tag]/[tag_2] relation names come
    out identical to the original. *)
