(** The write path: typed subtree mutations over a shredded store.

    The reader side shreds documents once ({!Ppfx_shred.Loader}) and
    queries the resulting relations; this module makes those relations
    {e mutable} without ever re-shredding:

    - New subtrees are labeled with ORDPATH caret labels
      ({!Ppfx_dewey.Ordpath.insert_between} / [child]) strictly between
      their new siblings, so no existing label is ever rewritten and
      every axis predicate of paper Table 2 keeps holding on the mix of
      bulk-loaded and inserted labels.
    - The Paths relation is maintained incrementally: fresh paths are
      interned, and a path whose last instance is deleted is removed.
    - Each mutation is staged as an explicit {!changeset} — ordered row
      deletes/updates/inserts plus the set of pathids it touches — and
      committed under the store's write lock with a
      {!Ppfx_minidb.Database.record_commit} entry, so prepared plans with
      disjoint footprints revalidate without re-planning
      ({!Ppfx_minidb.Engine.plan_compatible}).

    An {!t} pairs the store with a {e shadow forest}: the live tree shape
    (parent/child adjacency, text/element interleaving, labels) that the
    flat relations cannot answer from. The shadow is the single source of
    truth for staging; the relations follow it exactly. It is built in
    one way ({!of_store}, {!of_shadow}, {!load}): from the document trees
    plus the ids, labels and path ids the relations hold, walking each
    tree in preorder while reading each relation's rows in Dewey order. *)

module Tree = Ppfx_xml.Tree
module Graph = Ppfx_schema.Graph
module Database = Ppfx_minidb.Database
module Value = Ppfx_minidb.Value
module Loader = Ppfx_shred.Loader

exception Update_error of string
(** Raised on invalid operations: unknown element ids, fragments that do
    not conform to the schema, deleting a document root, setting an
    undeclared attribute. A raised stage leaves the shadow untouched. *)

type t
(** An updatable store: a {!Loader.t} plus its shadow forest. *)

(** {1 Construction} *)

val create : Graph.t -> Tree.node list -> t
(** Shred the documents through {!Loader.load} and build the shadow. *)

val of_store : Loader.t -> Tree.node list -> t
(** Adopt an existing loaded store. [trees] must be the source trees of
    the store's documents, in load order — the relational image does not
    retain text/element interleaving, so the trees are needed to seed
    the shadow. Element [k] of a tree (in preorder) of definition [d]
    takes the next row of [d]'s relation in Dewey order; the builder
    checks that each tag matches the schema, each row's path id matches
    [Paths], each id is in the allocated space and unique, each label
    parses, is a child of its parent's label and follows the previous
    element's, each root row carries its tree's [doc_id], and every fact
    row is used exactly once. A mismatch raises {!Update_error}. *)

val load : t -> Tree.node -> Ppfx_xml.Doc.t
(** Bulk-load one more document through {!Loader.load} (under the write
    lock) and rebuild the shadow over the grown store: the one way a
    document enters an updatable store. The new document's ids are
    numbered past every id allocated so far, caret inserts included, and
    it takes [doc_id] [(store t).doc_count]. Returns the indexed document,
    so a caller that stores it elsewhere too (a cluster's shards) need
    not index it again. A document the schema rejects raises
    {!Loader.Rejected} and leaves the store and the shadow as they were.
    The loader's raw inserts are not commit-logged, so this
    conservatively invalidates all prepared plans; use {!exec}
    [Insert_subtree] for incremental growth. *)

val store : t -> Loader.t
val db : t -> Database.t
val size : t -> int
(** Number of live elements. *)

(** {1 Operations} *)

type op =
  | Insert_subtree of { parent : int; before : int option; fragment : Tree.node }
      (** Splice [fragment] (an element conforming to the schema under
          [parent]'s definition) as a new child of [parent], immediately
          before child element [before], or as the last child. *)
  | Delete_subtree of { target : int }  (** Document roots cannot be deleted. *)
  | Replace_subtree of { target : int; fragment : Tree.node }
      (** Delete [target]'s subtree and insert [fragment] at its position. *)
  | Set_attribute of { target : int; name : string; value : string option }
      (** [None] removes the attribute. [name] must be declared. *)
  | Set_text of { target : int; text : string }
      (** Replace [target]'s direct text with [text] (element children are
          kept, moved after the text). *)

(** {1 Changesets} *)

type row_op =
  | Row_insert of { table : string; values : Value.t array }
  | Row_update of { table : string; elem : int; values : Value.t array }
      (** [elem] is the element id; each store resolves it to its own row
          position through the relation's [id] index, so one changeset
          applies to the coordinator store and to every shard replica. *)
  | Row_delete of { table : string; elem : int }

type routing = {
  rt_parent : int;  (** element id the mutation attaches under *)
  rt_left : int option;  (** adjacent element siblings of the new subtree *)
  rt_right : int option;
  rt_fk : (string * string) option;
      (** the fragment root's (relation, parent-fk column) — lets the
          cluster layer notice a newly appearing boundary foreign key *)
}

type changeset = {
  cs_ops : row_op list;  (** deletes first, then updates, then inserts *)
  cs_new_paths : (int * string) list;  (** rows to append to [Paths] *)
  cs_dead_paths : int list;  (** pathids whose last instance died *)
  cs_pathids : int list;
      (** every pathid whose rows or descriptor values this mutation
          changes — the commit-log entry prepared plans intersect their
          footprints with *)
  cs_routing : routing option;  (** present for inserts and replaces *)
}

type outcome = {
  inserted : int;
  updated : int;
  deleted : int;
  new_paths : int;
  dead_paths : int;
}

val stage : t -> op -> changeset
(** Validate the operation, mutate the shadow, and derive the row
    changeset. No database writes happen here. Raises {!Update_error}
    (before any shadow mutation) on invalid operations. *)

val commit : ?inserts:bool -> Database.t -> changeset -> unit
(** Apply a staged changeset to one database under its write lock and
    record the commit (touched table versions + changed pathids) in its
    log. [Row_update]/[Row_delete] targets absent from this database are
    skipped and [Paths] maintenance always applies, so the same changeset
    replays against shard replicas that hold only part of the store;
    [~inserts:false] additionally skips [Row_insert]s (for shards that do
    not own the new subtree). *)

val exec : t -> op -> outcome
(** [stage] + [commit] against the store's own database. *)

val outcome_of : changeset -> outcome

(** {1 Introspection} *)

val node_exists : t -> int -> bool
val node_path : t -> int -> string
val node_path_id : t -> int -> int
val node_tag : t -> int -> string
val node_relation : t -> int -> string
(** Name of the relation storing the element's row. *)

val node_parent : t -> int -> int option
val node_children : t -> int -> int list
val node_label : t -> int -> string
(** The stored ORDPATH label bytes. *)

val max_label_len : t -> int
(** Longest stored label over all live elements, in bytes — the metric
    the adversarial-insert bench tracks for caret growth. *)

val current_trees : t -> Tree.node list
(** Reconstruct the current documents from the shadow — feeding these to
    a fresh {!create} must produce a store whose query results match this
    one's (the incremental-vs-reshred differential). *)

val ranks : t -> (int, int) Hashtbl.t
(** Element id -> 1-based document-order rank over all live elements
    (label byte order). Incremental stores keep original ids while a
    re-shred renumbers; ranks are the id-independent comparison key. *)

(** {1 Snapshots}

    What durability must keep beside the database image for a recovered
    store to go on staging mutations: the current trees, which hold the
    text/element interleaving the relations lose, and the id counters.
    Ids, labels and path ids are not repeated here; {!of_shadow} reads
    them back from the adopted store's rows. *)

type shadow = {
  sh_trees : Tree.node list;  (** {!current_trees}, document order *)
  sh_next_id : int;  (** the next element id; ids are never reused *)
  sh_next_path_id : int;
}

val shadow : t -> shadow
(** An immutable copy of the current forest's trees and counters. *)

val of_shadow : Loader.t -> shadow -> t
(** Adopt [store] (typically a {!Ppfx_minidb.Codec} snapshot read back
    from disk) and rebuild the shadow from its trees and the store's
    rows, with every check {!of_store} makes; any mismatch raises
    {!Update_error}. The adopted store's [doc_count] is the number of
    trees, and its [next_id] is [sh_next_id], as on the live store. *)
