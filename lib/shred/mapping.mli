(** The schema-aware XML-to-relational mapping (paper Section 3).

    One relation per schema vertex (element definition / complex type),
    with columns:
    - [id] — element id, primary key;
    - one foreign-key column per possible parent relation, named
      [<parent_relation>_id] (a recursive vertex references itself);
    - [doc_id] on the root relation, distinguishing documents;
    - [dewey_pos] — the Dewey position as a binary string (Section 4.2);
    - [path_id] — foreign key into the [Paths] relation (Section 3.1);
    - [text] — the element's XPath string value (all descendant text) and
      [dtext] — its direct text, backing [text()] steps;
    - [ord] and [sibs] — the element's 1-based position among its
      same-tag siblings and their total count, backing positional
      predicates ([n], [position()], [last()]) on child steps;
    - one [attr_<name>] column per declared attribute (prefixed to avoid
      collisions with the descriptor columns).

    Indexes per Section 3.1: [id], each parent foreign key, and the
    concatenated [(dewey_pos, path_id)] index. The [Paths] relation is
    indexed on [id] and on [path]. *)

module Graph = Ppfx_schema.Graph

type t

val of_schema : Graph.t -> t
(** Derive the mapping (does not create any tables yet). *)

val schema : t -> Graph.t

val paths_table : string
(** Name of the [Paths] relation ("paths"). *)

val relation : t -> Graph.def -> string
(** Relation name storing instances of the definition. *)

val parent_fk : t -> child:Graph.def -> parent:Graph.def -> string
(** Name of the foreign-key column in [child]'s relation referencing
    [parent]'s relation. Raises [Invalid_argument] if the edge does not
    exist in the schema. *)

val attr_column : string -> string
(** Column name for an attribute ("attr_" ^ name). *)

val text_column : string
(** ["text"] — the string-value column used by value comparisons. *)

val dtext_column : string
(** ["dtext"] — the direct-text column backing [text()] steps. *)

val columns_of_def : t -> Graph.def -> Ppfx_minidb.Table.column list
(** The full column list of the definition's relation, in order. *)

val create_tables : t -> Ppfx_minidb.Database.t -> unit
(** Create all mapping relations (including [Paths]) with their indexes.
    Every element fact table is partitioned by [path_id] with
    per-partition [dewey_pos] order (see
    {!Ppfx_minidb.Table.partition_spec}), which the engine exploits for
    partition pruning. [Paths] itself is never partitioned. *)
