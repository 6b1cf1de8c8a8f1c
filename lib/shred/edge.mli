(** Schema-oblivious Edge-style mapping (paper Sections 1 and 5.1).

    All elements live in one central [edge] relation; attributes live in a
    dedicated [attr] relation (the paper's footnote 3 choice), and the
    [Paths] relation is shared with the schema-aware store design:

    - [edge(id, par_id, tag, dewey_pos, path_id, text, dtext, ord,
      sibs)] with [id] its declared key and indexes on [id], [par_id], [(dewey_pos, path_id)] and
      [path_id] ([ord]/[sibs] are the same-tag sibling ordinal and count
      backing positional predicates);
    - [attr(elem_id, name, value)] with indexes on [elem_id] and [name];
    - [paths(id, path)] keyed on [id], with indexes on [id] and [path]. *)

module Doc = Ppfx_xml.Doc

type t = {
  db : Ppfx_minidb.Database.t;
  docs : Doc.t list;
}

val edge_table : string
val attr_table : string
val paths_table : string

val create : unit -> t
(** Create the three relations with their indexes. *)

val load : t -> Doc.t -> t
(** Shred a document (no schema needed). *)

val shred : Doc.t -> t

val path_id : t -> string -> int option
