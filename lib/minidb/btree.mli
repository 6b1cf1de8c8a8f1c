(** B+trees over composite value keys.

    The relational substrate's index structure: every index the shredders
    create (on [id], on each parent foreign key, and the concatenated
    [(dewey_pos, path_id)] index of paper Section 3.1) is one of these.

    Keys are composite ([Value.t array]); each entry maps a key to a row
    id. Duplicate keys are allowed. Range scans accept {e prefix} bounds:
    a bound shorter than the key width constrains only the leading
    components, which is how a scan over the [(dewey_pos, path_id)] index
    serves pure [dewey_pos] range predicates. *)

type t

val create : ?order:int -> width:int -> unit -> t
(** [width] is the number of key components; [order] the maximum number of
    entries per node (default 32). *)

val width : t -> int

val length : t -> int
(** Number of entries. *)

val insert : t -> Value.t array -> int -> unit
(** [insert t key row] adds an entry. [key] must have exactly [width]
    components. *)

val delete : t -> Value.t array -> int -> bool
(** [delete t key row] removes the entry for exactly that (key, row)
    pair; returns false when absent. Nodes are rebalanced by borrowing
    from or merging with siblings, so the half-full invariant holds
    afterwards (checked by {!check_invariants}). *)

type bound = { key : Value.t array; inclusive : bool }
(** A prefix bound: only the first [Array.length key] components
    constrain the scan. *)

val range : t -> lo:bound option -> hi:bound option -> int list
(** Row ids of all entries between the bounds, in key order. [None] means
    unbounded on that side. *)

val find_equal : t -> Value.t array -> int list
(** Row ids of entries whose leading components equal the given (possibly
    partial) key. *)

val find_first : t -> Value.t -> int option
(** The row id of the first entry (in key order, ties by row id) whose
    first component equals the value: one descent, no scan. *)

val iter : (Value.t array -> int -> unit) -> t -> unit
(** In key order. *)

val depth : t -> int
(** Height of the tree (a leaf-only tree has depth 1). Exposed for tests. *)

val check_invariants : t -> (unit, string) result
(** Validate ordering, node fill and linked-leaf consistency (test hook). *)
