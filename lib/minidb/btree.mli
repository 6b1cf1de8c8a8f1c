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

type bound = { key : Value.t array; inclusive : bool; suffix : Value.t option }
(** A prefix bound: only the first [Array.length key] components
    constrain the scan. With [suffix], the last of them stands for its
    concatenation with the suffix ({!Value.concat}), compared in place:
    the Dewey bound [d || x'FF'] of paper Section 4.2 needs no string
    built per probe. *)

val iter_range : t -> lo:bound option -> hi:bound option -> (int -> unit) -> unit
(** [iter_range t ~lo ~hi f] calls [f] on the row id of every entry
    between the bounds, in key order, as the walk reaches it; [None] means
    unbounded on that side. One descent to the first entry past [lo] (a
    binary search per node), then a walk along the linked leaves until an
    entry is beyond [hi]. The walk allocates nothing: a caller probing
    once per outer row can build its bounds once and refill their key
    arrays before each probe. [f] must not modify the tree. *)

val iter_bin_prefix : t -> string -> int -> (int -> unit) -> unit
(** [iter_bin_prefix t s len f] calls [f] on the row id of every entry
    whose first component is [Bin] of the first [len] bytes of [s], in
    key order: the rows of [find_equal t [| Bin (String.sub s 0 len) |]],
    compared in place, with no substring and no key array. *)

val find_equal : t -> Value.t array -> int list
(** Row ids of entries whose leading components equal the given (possibly
    partial) key, as a list: for the loader, the update path and the
    cluster, which probe once, not per row. *)

val find_first : t -> Value.t -> int option
(** The row id of the first entry (in key order, ties by row id) whose
    first component equals the value: one descent, no scan. *)

val iter : (Value.t array -> int -> unit) -> t -> unit
(** In key order, with a fresh copy of each key. *)

val iter_ids : (int -> unit) -> t -> unit
(** The row ids in key order, without the keys: a full index-order walk
    that copies nothing. *)

val depth : t -> int
(** Height of the tree (a leaf-only tree has depth 1). Exposed for tests. *)

val check_invariants : t -> (unit, string) result
(** Validate ordering, node fill and linked-leaf consistency (test hook). *)
