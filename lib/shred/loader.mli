(** Shredding XML documents into the schema-aware relational store. *)

module Graph = Ppfx_schema.Graph
module Doc = Ppfx_xml.Doc

type t = {
  mapping : Mapping.t;
  db : Ppfx_minidb.Database.t;
  doc_count : int;
      (** documents loaded so far: the last one's [doc_id], the next one
          takes [doc_count + 1] *)
  next_id : int;
      (** the id the next loaded element receives: one past every id
          handed out so far *)
}
(** A loaded store instance. The relations are the documents: the
    store keeps no other copy of them. *)

exception Rejected of string
(** Raised when a document does not conform to the mapping's schema. *)

val create : Mapping.t -> t
(** Create the store: all mapping relations and indexes, no data (see
    {!Mapping.create_tables}). *)

val label : doc_id:int -> Ppfx_dewey.Dewey.t -> string
(** The stored label bytes of an element: the ORDPATH encoding of
    [doc_id :: dewey components], every component mapped to its odd form
    [2c - 1]. Byte order equals document order, and the write path can
    caret fresh labels between existing ones without relabeling. *)

val load : ?keep:(Doc.element -> bool) -> t -> Doc.t -> t
(** Shred one document into the store; assigns the next [doc_id]. The
    [Paths] relation grows with any paths not seen before (Section 3.1).

    Element ids are made globally unique by numbering each document's
    preorder ids from [next_id], and stored labels are
    ORDPATH encodings prefixed with a [doc_id] component (every document
    root becomes a child of a virtual collection root) — see {!label}.
    Structural joins therefore never cross documents; the order axes see
    the store as one forest ordered by [doc_id]. A new path's id is one
    past the largest in [Paths]. Raises {!Rejected} on schema mismatch;
    every element is checked before the first write, so a rejected
    document leaves the store as it was.

    [keep] (default: keep everything) selects the subset of elements whose
    rows are stored — the cluster layer's partitioned loading. Dropped
    elements still advance the global id/Dewey numbering, are still
    validated against the schema, and still intern their root-to-node
    paths, so: (a) a kept element's stored columns are byte-identical to
    what a full load would store (ids, Dewey, [ord]/[sibs] and string
    values are computed from the whole document), and (b) every partition
    of the same document sequence builds the identical [Paths] relation. *)

val shred : Graph.t -> Doc.t -> t
(** Convenience: mapping + create + load of a single document. *)

val path_id : t -> string -> int option
(** Look up a root-to-node path in the [Paths] relation. *)

val def_of_element : t -> doc:Doc.t -> int -> Graph.def
(** The schema vertex an element instantiates (computed from its path).
    Raises [Not_found] for unknown paths. *)
