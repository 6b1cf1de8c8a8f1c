(** Binary persistence for databases.

    A compact, self-describing format (magic ["PPFXDB5"], then per table:
    name, typed column list, partition spec, row count, length-prefixed
    values, index column lists). Indexes and partition segments are
    rebuilt on load rather than serialized — they are derived data.
    Tombstoned rows are compacted away, so row ids are {e not} stable
    across a save/load cycle unless no deletions happened. The declared
    key columns follow the index lists.

    Every structural reference inside an image (partition columns, index
    columns, value tags, lengths) is validated on decode: malformed
    input raises {!Corrupt} (or returns [Error] via the [_result]
    readers), never a stray [Not_found]/[End_of_file].

    The {{!primitives}primitives} the image is built from are the same
    ones the write-ahead log encodes its records and sidecars with. *)

exception Corrupt of string
(** Raised on malformed input. *)

val write_database : out_channel -> Database.t -> unit

val read_database : in_channel -> Database.t
(** Raises {!Corrupt}. *)

val database_to_string : Database.t -> string
(** The full PPFXDB5 image as a string — byte-identical to what
    {!write_database} emits. *)

val database_of_string : string -> Database.t
(** Raises {!Corrupt} on malformed input (including trailing
    truncation). *)

val save : string -> Database.t -> unit
(** Write to a file path. *)

val load : string -> Database.t
(** Raises {!Corrupt} on malformed input, [Sys_error] on IO failure. *)

(** {2 Typed (non-raising) loaders} *)

type error =
  | Io_error of string  (** the file could not be opened or read *)
  | Corrupted of string  (** the bytes are not a valid PPFXDB5 image *)

val error_to_string : error -> string

val load_result : string -> (Database.t, error) result
(** Like {!load} but never raises on bad input. *)

val of_string_result : string -> (Database.t, error) result
(** Like {!database_of_string} but never raises on bad input. *)

(** {2:primitives Primitives}

    Zigzag-LEB128 varints, varint-length-prefixed strings and tagged
    values (tag byte 0 null, 1 int, 2 float as 8 little-endian bytes of
    its IEEE bits, 3 string, 4 binary). Writers append to a [Buffer.t];
    readers advance a {!cursor} over a string and raise {!Corrupt} when
    the input runs out or a tag is unknown. *)

type cursor

val cursor : string -> cursor
(** A reader at the start of the string. *)

val at_end : cursor -> bool
val get_byte : cursor -> int
val put_varint : Buffer.t -> int -> unit
val get_varint : cursor -> int
val put_string : Buffer.t -> string -> unit
val get_string : cursor -> string
val put_value : Buffer.t -> Value.t -> unit
val get_value : cursor -> Value.t
