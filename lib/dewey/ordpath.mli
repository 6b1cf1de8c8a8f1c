(** ORDPATH: the insert-friendly Dewey variant of O'Neil et al.
    (SIGMOD 2004), cited as reference [19] of the paper and used by the
    related system [16] it compares against.

    Plain Dewey positions ({!Dewey}) must renumber siblings to insert a
    node between two existing ones. ORDPATH reserves {e even and negative}
    component values as "careting" components that do not contribute a
    level: only odd components count as levels, so a node can always be
    placed between two siblings by extending one of them with a caret
    followed by a fresh odd component — no existing label ever changes.

    This implementation keeps the paper's 3-byte component encoding with
    an offset so that lexicographic byte comparison still equals document
    order, and all of Table 2's axis predicates keep working unchanged:
    descendants of [d] are exactly the labels strictly between [d] and
    [d || 0xFF]. *)

type t = private string

exception Invalid of string

val root : t
(** The label [1] of a document root element. *)

val of_components : int list -> t
(** Encode a component vector (components in
    [-0x3FFFFF .. 0x3FFFFF]). *)

val to_components : t -> int list

val child : t -> int -> t
(** [child t i] appends the [i]-th odd child component [2i - 1]
    (1-based), matching an initial bulk load. *)

val insert_between : t option -> t option -> t
(** [insert_between (Some a) (Some b)] is a fresh label strictly between
    sibling labels [a] and [b] ([a < b], same parent); [insert_between
    None (Some b)] is before [b]; [insert_between (Some a) None] after
    [a]; [insert_between None None] raises {!Invalid}. No existing label
    is ever modified. *)

val level : t -> int
(** Number of {e odd} components — careting components do not add a
    level. *)

val compare : t -> t -> int
(** Lexicographic byte order = document order. *)

val is_descendant : t -> of_:t -> bool
val is_following : t -> of_:t -> bool
val is_preceding : t -> of_:t -> bool

val parent : t -> t option
(** Strips the trailing odd component and any careting components before
    it. *)

val to_raw : t -> string
(** The encoded bytes as stored in a BINARY column. Lexicographic byte
    order over these equals document order. *)

val of_raw : string -> t
(** Re-adopt bytes previously produced by {!to_raw} (e.g. read back from
    a table's label column). Validates the encoding; raises {!Invalid}
    on malformed bytes. *)

val child_of_raw : string -> parent:t -> t
(** Re-adopt bytes read back from a label column as a child label of
    [parent]: [parent]'s bytes, then careting components, then one odd
    component, as {!child} and {!insert_between} build it. Raises
    {!Invalid} otherwise. Only the bytes past [parent]'s are decoded, and
    nothing is allocated. *)

val to_dotted : t -> string
val pp : Format.formatter -> t -> unit
